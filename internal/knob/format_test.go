package knob

import "testing"

func TestFormatValue(t *testing.T) {
	cat := MySQL()
	cases := []struct {
		knob string
		v    float64
		want string
	}{
		{"innodb_buffer_pool_size", 16 << 30, "16 GB"},
		{"innodb_buffer_pool_size", 128 << 20, "128 MB"},
		{"innodb_adaptive_hash_index", 1, "ON"},
		{"innodb_adaptive_hash_index", 0, "OFF"},
		{"innodb_flush_method", 2, "O_DIRECT"},
		{"thread_handling", 1, "pool-of-threads"},
		{"innodb_io_capacity", 2000, "2000 iops"},
		{"innodb_max_dirty_pages_pct", 75, "75 %"},
	}
	for _, c := range cases {
		spec, ok := cat.Spec(c.knob)
		if !ok {
			t.Fatalf("missing %s", c.knob)
		}
		if got := spec.FormatValue(c.v); got != c.want {
			t.Errorf("%s(%v) = %q, want %q", c.knob, c.v, got, c.want)
		}
	}
}

func TestFormatValueClampsOutOfRange(t *testing.T) {
	spec, _ := MySQL().Spec("innodb_flush_method")
	if got := spec.FormatValue(99); got != "O_DIRECT" {
		t.Fatalf("out-of-range enum should clamp: %q", got)
	}
}
