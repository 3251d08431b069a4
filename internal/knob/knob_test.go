package knob

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"github.com/hunter-cdb/hunter/internal/sim"
)

func TestBuiltinCatalogsValid(t *testing.T) {
	for _, cat := range []*Catalog{MySQL(), Postgres()} {
		if cat.Len() != 70 {
			t.Errorf("%s catalog has %d knobs, want 70", cat.Dialect, cat.Len())
		}
		seen := map[string]bool{}
		for _, s := range cat.Specs() {
			if err := s.Validate(); err != nil {
				t.Errorf("%s: %v", cat.Dialect, err)
			}
			if seen[s.Name] {
				t.Errorf("%s: duplicate knob %s", cat.Dialect, s.Name)
			}
			seen[s.Name] = true
		}
	}
}

func TestTuned65Selections(t *testing.T) {
	if n := len(MySQLTuned65()); n != 65 {
		t.Errorf("MySQL tuned set has %d knobs, want 65", n)
	}
	if n := len(PostgresTuned65()); n != 65 {
		t.Errorf("Postgres tuned set has %d knobs, want 65", n)
	}
	cat := MySQL()
	for _, n := range MySQLTuned65() {
		if _, ok := cat.Spec(n); !ok {
			t.Errorf("tuned knob %s not in catalog", n)
		}
	}
}

func TestDefaultsWithinRange(t *testing.T) {
	for _, cat := range []*Catalog{MySQL(), Postgres()} {
		def := cat.Defaults()
		for _, s := range cat.Specs() {
			v := def[s.Name]
			if v < s.Min || v > s.Max {
				t.Errorf("%s default %g outside [%g,%g]", s.Name, v, s.Min, s.Max)
			}
		}
	}
}

func TestSpecClampProperty(t *testing.T) {
	cat := MySQL()
	f := func(raw float64, pick uint8) bool {
		s := cat.Specs()[int(pick)%cat.Len()]
		v := s.Clamp(raw)
		if v < s.Min || v > s.Max {
			return false
		}
		if s.Kind != Float && v != math.Round(v) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClampNaNFallsBackToDefault(t *testing.T) {
	s := &Spec{Name: "x", Kind: Float, Min: 0, Max: 10, Default: 3}
	if got := s.Clamp(math.NaN()); got != 3 {
		t.Fatalf("NaN clamp = %v, want default", got)
	}
}

func TestNewCatalogRejectsDuplicates(t *testing.T) {
	_, err := NewCatalog("x", []Spec{
		{Name: "a", Kind: Float, Min: 0, Max: 1, Default: 0},
		{Name: "a", Kind: Float, Min: 0, Max: 1, Default: 0},
	})
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("expected duplicate error, got %v", err)
	}
}

func TestSpecValidateErrors(t *testing.T) {
	bad := []Spec{
		{Name: "", Kind: Float, Min: 0, Max: 1, Default: 0},
		{Name: "x", Kind: Float, Min: 1, Max: 0, Default: 0.5},
		{Name: "x", Kind: Float, Min: 0, Max: 1, Default: 2},
		{Name: "x", Kind: Bool, Min: 0, Max: 2, Default: 0},
		{Name: "x", Kind: Enum, Min: 0, Max: 1, Default: 0, Enum: []string{"one"}},
		{Name: "x", Kind: Integer, Scale: Log, Min: 0, Max: 10, Default: 1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d should fail validation", i)
		}
	}
}

func TestConfigCloneAndKey(t *testing.T) {
	c := Config{"a": 1, "b": 2}
	d := c.Clone()
	d["a"] = 9
	if c["a"] != 1 {
		t.Fatal("clone aliases original")
	}
	if c.Key() == d.Key() {
		t.Fatal("different configs share a key")
	}
	if c.Key() != (Config{"b": 2, "a": 1}).Key() {
		t.Fatal("key must be order-independent")
	}
}

func TestRequiresRestart(t *testing.T) {
	cat := MySQL()
	def := cat.Defaults()
	dyn := def.Clone()
	dyn["innodb_io_capacity"] = 5000 // dynamic knob
	if RequiresRestart(cat, def, dyn) {
		t.Fatal("dynamic knob change should not require restart")
	}
	rst := def.Clone()
	rst["innodb_buffer_pool_size"] = 1 << 30 // restart-required
	if !RequiresRestart(cat, def, rst) {
		t.Fatal("buffer pool change must require restart")
	}
}

func TestSpaceEncodeDecodeRoundTrip(t *testing.T) {
	cat := MySQL()
	space, err := NewSpace(cat, MySQLTuned65(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(3)
	for trial := 0; trial < 200; trial++ {
		x := space.Random(rng)
		cfg := space.Decode(x)
		x2 := space.Encode(cfg)
		cfg2 := space.Decode(x2)
		for _, name := range space.Names() {
			if cfg[name] != cfg2[name] {
				t.Fatalf("decode∘encode not idempotent on %s: %v != %v", name, cfg[name], cfg2[name])
			}
		}
	}
}

func TestSpaceDecodeRespectsBounds(t *testing.T) {
	cat := MySQL()
	space, err := NewSpace(cat, MySQLTuned65(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range [][]float64{make([]float64, space.Dim()), onesVec(space.Dim())} {
		cfg := space.Decode(x)
		for _, name := range space.Names() {
			spec, _ := cat.Spec(name)
			v := cfg[name]
			if v < spec.Min || v > spec.Max {
				t.Errorf("%s = %g outside [%g,%g]", name, v, spec.Min, spec.Max)
			}
		}
	}
}

func onesVec(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

func TestLogScaleMapping(t *testing.T) {
	cat := MySQL()
	space, err := NewSpace(cat, []string{"innodb_buffer_pool_size"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	lo := space.Decode([]float64{0})["innodb_buffer_pool_size"]
	mid := space.Decode([]float64{0.5})["innodb_buffer_pool_size"]
	hi := space.Decode([]float64{1})["innodb_buffer_pool_size"]
	spec, _ := cat.Spec("innodb_buffer_pool_size")
	if lo != spec.Min || hi != spec.Max {
		t.Fatalf("endpoints wrong: %g %g", lo, hi)
	}
	// Log scale: midpoint is the geometric mean, far below the arithmetic.
	geo := math.Sqrt(spec.Min * spec.Max)
	if math.Abs(mid-geo)/geo > 0.05 {
		t.Fatalf("log midpoint %g, want ≈ %g", mid, geo)
	}
}

func TestRulesFixRemovesDimension(t *testing.T) {
	cat := MySQL()
	rules := NewRules().Fix("innodb_buffer_pool_size", 2<<30)
	space, err := NewSpace(cat, []string{"innodb_buffer_pool_size", "innodb_io_capacity"}, rules)
	if err != nil {
		t.Fatal(err)
	}
	if space.Dim() != 1 {
		t.Fatalf("dim = %d, want 1", space.Dim())
	}
	cfg := space.Decode([]float64{0.5})
	if cfg["innodb_buffer_pool_size"] != 2<<30 {
		t.Fatalf("fixed knob = %g", cfg["innodb_buffer_pool_size"])
	}
}

func TestRulesRangeNarrows(t *testing.T) {
	cat := MySQL()
	rules := NewRules().Range("innodb_io_capacity", 1000, 2000)
	space, err := NewSpace(cat, []string{"innodb_io_capacity"}, rules)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(1)
	for i := 0; i < 100; i++ {
		v := space.Decode(space.Random(rng))["innodb_io_capacity"]
		if v < 1000 || v > 2000 {
			t.Fatalf("value %g outside rule range", v)
		}
	}
}

func TestRulesConditional(t *testing.T) {
	// The paper's example: thread_handling = pool-of-threads if
	// connections > 100.
	cat := MySQL()
	rules := NewRules().When("max_connections", OpGT, 100, "thread_handling", 1)
	space, err := NewSpace(cat, []string{"max_connections", "thread_handling"}, rules)
	if err != nil {
		t.Fatal(err)
	}
	cfg := space.Decode([]float64{1, 0}) // max connections, thread_handling=0
	if cfg["thread_handling"] != 1 {
		t.Fatalf("conditional not enforced: thread_handling = %g", cfg["thread_handling"])
	}
	cfgLow := space.Decode([]float64{0, 0}) // min connections
	if cfgLow["thread_handling"] != 0 {
		t.Fatalf("conditional fired when it should not")
	}
}

func TestRulesValidateUnknownKnob(t *testing.T) {
	cat := MySQL()
	if err := NewRules().Fix("no_such_knob", 1).Validate(cat); err == nil {
		t.Fatal("expected error for unknown fixed knob")
	}
	if err := NewRules().Range("nope", 0, 1).Validate(cat); err == nil {
		t.Fatal("expected error for unknown ranged knob")
	}
	if err := NewRules().When("nope", OpGT, 0, "thread_handling", 1).Validate(cat); err == nil {
		t.Fatal("expected error for unknown conditional knob")
	}
	if err := NewRules().SetAlpha(math.NaN()).Validate(cat); err == nil {
		t.Error("NaN alpha accepted")
	}
	if err := NewRules().Range("innodb_io_capacity", math.NaN(), 1000).Validate(cat); err == nil {
		t.Error("NaN lower range bound accepted")
	}
	if err := NewRules().Range("innodb_io_capacity", 100, math.NaN()).Validate(cat); err == nil {
		t.Error("NaN upper range bound accepted")
	}
	if err := NewRules().SetAlpha(0.7).Range("innodb_io_capacity", 100, 1000).Validate(cat); err != nil {
		t.Errorf("valid rules rejected: %v", err)
	}
}

func TestRulesViolations(t *testing.T) {
	cat := MySQL()
	rules := NewRules().Fix("innodb_doublewrite", 0).Range("innodb_io_capacity", 1000, 2000)
	cfg := cat.Defaults()
	cfg["innodb_doublewrite"] = 1
	cfg["innodb_io_capacity"] = 100
	v := rules.Violations(cat, cfg)
	if len(v) != 2 {
		t.Fatalf("want 2 violations, got %v", v)
	}
	ok := cat.Defaults()
	ok["innodb_doublewrite"] = 0
	ok["innodb_io_capacity"] = 1500
	if v := rules.Violations(cat, ok); len(v) != 0 {
		t.Fatalf("unexpected violations: %v", v)
	}
}

func TestEffectiveAlpha(t *testing.T) {
	if a := (&Rules{}).EffectiveAlpha(); a != 0.5 {
		t.Fatalf("default alpha = %v, want 0.5", a)
	}
	var nilRules *Rules
	if a := nilRules.EffectiveAlpha(); a != 0.5 {
		t.Fatalf("nil rules alpha = %v", a)
	}
	if a := NewRules().SetAlpha(0).EffectiveAlpha(); a != 0 {
		t.Fatalf("explicit zero alpha = %v", a)
	}
	if a := NewRules().SetAlpha(2).EffectiveAlpha(); a != 1 {
		t.Fatalf("alpha should clamp to 1, got %v", a)
	}
}

func TestInvertedRuleRangeRejected(t *testing.T) {
	cat := MySQL()
	rules := NewRules().Range("innodb_io_capacity", 2000, 1000)
	if _, err := NewSpace(cat, []string{"innodb_io_capacity"}, rules); err == nil {
		t.Fatal("inverted range should be rejected")
	}
}

func TestEmptySpaceRejected(t *testing.T) {
	cat := MySQL()
	rules := NewRules().Fix("innodb_io_capacity", 500)
	if _, err := NewSpace(cat, []string{"innodb_io_capacity"}, rules); err == nil {
		t.Fatal("space with all knobs fixed should be rejected")
	}
}

func TestNarrowAndWithBase(t *testing.T) {
	cat := MySQL()
	space, err := NewSpace(cat, MySQLTuned65(), nil)
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := space.Narrow([]string{"innodb_buffer_pool_size", "innodb_io_capacity"})
	if err != nil {
		t.Fatal(err)
	}
	if narrow.Dim() != 2 {
		t.Fatalf("narrow dim = %d", narrow.Dim())
	}
	// Plain narrowing pins dropped knobs to defaults.
	cfg := narrow.Decode([]float64{0.5, 0.5})
	if cfg["innodb_flush_log_at_trx_commit"] != 1 {
		t.Fatalf("dropped knob not at default: %g", cfg["innodb_flush_log_at_trx_commit"])
	}
	// WithBase pins them to the incumbent instead.
	best := cat.Defaults()
	best["innodb_flush_log_at_trx_commit"] = 2
	based := narrow.WithBase(best)
	cfg2 := based.Decode([]float64{0.5, 0.5})
	if cfg2["innodb_flush_log_at_trx_commit"] != 2 {
		t.Fatalf("WithBase did not pin incumbent value: %g", cfg2["innodb_flush_log_at_trx_commit"])
	}
	// Tuned dimensions are still live.
	if based.Decode([]float64{0, 0.5})["innodb_buffer_pool_size"] == based.Decode([]float64{1, 0.5})["innodb_buffer_pool_size"] {
		t.Fatal("tuned dimension frozen by WithBase")
	}
}

func TestWithBaseRespectsRuleFixed(t *testing.T) {
	cat := MySQL()
	rules := NewRules().Fix("innodb_doublewrite", 1)
	space, err := NewSpace(cat, []string{"innodb_buffer_pool_size", "innodb_doublewrite"}, rules)
	if err != nil {
		t.Fatal(err)
	}
	base := cat.Defaults()
	base["innodb_doublewrite"] = 0 // tries to override the rule
	cfg := space.WithBase(base).Decode([]float64{0.5})
	if cfg["innodb_doublewrite"] != 1 {
		t.Fatal("WithBase must not override rule-fixed knobs")
	}
}
