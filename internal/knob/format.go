package knob

import (
	"fmt"
	"math"
)

// FormatValue renders a knob value the way a DBA would read it: byte
// quantities in human units, enums by name, booleans as ON/OFF.
func (s *Spec) FormatValue(v float64) string {
	v = s.Clamp(v)
	switch s.Kind {
	case Bool:
		if v == 1 {
			return "ON"
		}
		return "OFF"
	case Enum:
		i := int(v)
		if i >= 0 && i < len(s.Enum) {
			return s.Enum[i]
		}
		return fmt.Sprintf("%d", i)
	}
	if s.Unit == "bytes" {
		return formatBytes(v)
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d%s", int64(v), unitSuffix(s.Unit))
	}
	return fmt.Sprintf("%g%s", v, unitSuffix(s.Unit))
}

func unitSuffix(u string) string {
	if u == "" {
		return ""
	}
	return " " + u
}

func formatBytes(v float64) string {
	abs := math.Abs(v)
	format := func(val float64, unit string) string {
		if val == math.Trunc(val) {
			return fmt.Sprintf("%g %s", val, unit)
		}
		return fmt.Sprintf("%.1f %s", val, unit)
	}
	switch {
	case abs >= 1<<30:
		return format(v/(1<<30), "GB")
	case abs >= 1<<20:
		return format(v/(1<<20), "MB")
	case abs >= 1<<10:
		return format(v/(1<<10), "KB")
	}
	return fmt.Sprintf("%g B", v)
}
