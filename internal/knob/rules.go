package knob

import (
	"fmt"
	"math"
)

// Op is a comparison operator in a conditional rule.
type Op int

const (
	// OpGT fires when the observed value is strictly greater.
	OpGT Op = iota
	// OpLT fires when the observed value is strictly smaller.
	OpLT
	// OpEQ fires on exact equality.
	OpEQ
)

func (o Op) String() string {
	switch o {
	case OpGT:
		return ">"
	case OpLT:
		return "<"
	case OpEQ:
		return "="
	}
	return "?"
}

// Conditional expresses rules of the form the paper gives as an example:
// "thread_handling = pool-of-threads if connections > 100". When the value
// of If compares true against Value, knob Then is pinned to ThenValue.
type Conditional struct {
	If        string
	Op        Op
	Value     float64
	Then      string
	ThenValue float64
}

// Rules are a user's personalized tuning restrictions (§2.1 "Rules"): which
// knobs are fixed, how the remaining ranges are narrowed, conditional
// constraints, and the throughput/latency preference α of Eq. 1.
type Rules struct {
	// Alpha ∈ [0,1] weights throughput against latency in the fitness and
	// reward functions. Zero value is replaced by the paper default 0.5
	// through EffectiveAlpha.
	Alpha float64
	// AlphaSet marks that Alpha was set explicitly (so Alpha=0, i.e.
	// pure-latency tuning, is expressible).
	AlphaSet bool
	// Fixed pins knobs to exact values and removes them from the space.
	Fixed map[string]float64
	// Ranges narrows the tunable interval of knobs.
	Ranges map[string][2]float64
	// Conditionals are enforced on every decoded configuration.
	Conditionals []Conditional
	// Tail99 switches the latency term of Eq. 1 from 95th- to
	// 99th-percentile latency — the sensitive-queries extension the paper
	// discusses in §5 ("focusing on optimizing tail-99% latency instead
	// of tail-95% latency").
	Tail99 bool
}

// NewRules returns an empty, unrestricted rule set.
func NewRules() *Rules {
	return &Rules{Fixed: map[string]float64{}, Ranges: map[string][2]float64{}}
}

// Fix pins a knob to an exact value.
func (r *Rules) Fix(name string, v float64) *Rules {
	if r.Fixed == nil {
		r.Fixed = map[string]float64{}
	}
	r.Fixed[name] = v
	return r
}

// Range narrows the tunable interval of a knob.
func (r *Rules) Range(name string, lo, hi float64) *Rules {
	if r.Ranges == nil {
		r.Ranges = map[string][2]float64{}
	}
	r.Ranges[name] = [2]float64{lo, hi}
	return r
}

// When adds a conditional constraint.
func (r *Rules) When(ifKnob string, op Op, value float64, thenKnob string, thenValue float64) *Rules {
	r.Conditionals = append(r.Conditionals, Conditional{If: ifKnob, Op: op, Value: value, Then: thenKnob, ThenValue: thenValue})
	return r
}

// SetAlpha sets the throughput/latency preference.
func (r *Rules) SetAlpha(a float64) *Rules {
	r.Alpha = a
	r.AlphaSet = true
	return r
}

// OptimizeTail99 makes the tuning objective use 99th-percentile latency.
func (r *Rules) OptimizeTail99() *Rules {
	r.Tail99 = true
	return r
}

// EffectiveAlpha returns the α to use in Eq. 1 (paper default 0.5).
func (r *Rules) EffectiveAlpha() float64 {
	if r == nil || !r.AlphaSet {
		return 0.5
	}
	if r.Alpha < 0 {
		return 0
	}
	if r.Alpha > 1 {
		return 1
	}
	return r.Alpha
}

// EnforceConditionals applies every conditional rule to cfg in place,
// clamping pinned values to their spec domain.
func (r *Rules) EnforceConditionals(cat *Catalog, cfg Config) {
	if r == nil {
		return
	}
	for _, c := range r.Conditionals {
		ifSpec, ok := cat.Spec(c.If)
		if !ok {
			continue
		}
		v := cfg.Get(c.If, ifSpec.Default)
		fire := false
		switch c.Op {
		case OpGT:
			fire = v > c.Value
		case OpLT:
			fire = v < c.Value
		case OpEQ:
			fire = v == c.Value
		}
		if !fire {
			continue
		}
		if thenSpec, ok := cat.Spec(c.Then); ok {
			cfg[c.Then] = thenSpec.Clamp(c.ThenValue)
		}
	}
}

// Validate checks that every referenced knob exists in the catalog and
// that α and the range bounds are numbers: EffectiveAlpha's clamp and the
// inverted-range check both let NaN through, and a NaN α turns every
// Eq. 1 fitness into NaN.
func (r *Rules) Validate(cat *Catalog) error {
	if r == nil {
		return nil
	}
	if r.AlphaSet && math.IsNaN(r.Alpha) {
		return fmt.Errorf("rules: alpha is NaN, want a value in [0,1]")
	}
	for name := range r.Fixed {
		if _, ok := cat.Spec(name); !ok {
			return fmt.Errorf("rules: fixed knob %q not in %s catalog", name, cat.Dialect)
		}
	}
	for name, rg := range r.Ranges {
		if _, ok := cat.Spec(name); !ok {
			return fmt.Errorf("rules: ranged knob %q not in %s catalog", name, cat.Dialect)
		}
		if math.IsNaN(rg[0]) || math.IsNaN(rg[1]) {
			return fmt.Errorf("rules: range for %q has a NaN bound [%g,%g]", name, rg[0], rg[1])
		}
	}
	for _, c := range r.Conditionals {
		if _, ok := cat.Spec(c.If); !ok {
			return fmt.Errorf("rules: conditional references unknown knob %q", c.If)
		}
		if _, ok := cat.Spec(c.Then); !ok {
			return fmt.Errorf("rules: conditional pins unknown knob %q", c.Then)
		}
	}
	return nil
}

// Violations reports every way cfg violates the rules; an empty slice means
// the configuration is admissible. Used by tests and by the Actor before
// deploying to the user's instance.
func (r *Rules) Violations(cat *Catalog, cfg Config) []string {
	if r == nil {
		return nil
	}
	var out []string
	for name, want := range r.Fixed {
		spec, ok := cat.Spec(name)
		if !ok {
			continue
		}
		if got := cfg.Get(name, spec.Default); got != spec.Clamp(want) {
			out = append(out, fmt.Sprintf("%s fixed to %g but is %g", name, spec.Clamp(want), got))
		}
	}
	for name, rg := range r.Ranges {
		spec, ok := cat.Spec(name)
		if !ok {
			continue
		}
		got := cfg.Get(name, spec.Default)
		if got < rg[0] || got > rg[1] {
			out = append(out, fmt.Sprintf("%s=%g outside rule range [%g,%g]", name, got, rg[0], rg[1]))
		}
	}
	cloned := cfg.Clone()
	r.EnforceConditionals(cat, cloned)
	for _, c := range r.Conditionals {
		if cloned.Get(c.Then, 0) != cfg.Get(c.Then, cloned.Get(c.Then, 0)) {
			out = append(out, fmt.Sprintf("conditional %s %s %g => %s=%g violated", c.If, c.Op, c.Value, c.Then, c.ThenValue))
		}
	}
	return out
}
