package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, r := range All() {
		if r.ID == "" || r.Title == "" || r.Run == nil {
			t.Fatalf("incomplete runner %+v", r)
		}
		if ids[r.ID] {
			t.Fatalf("duplicate id %s", r.ID)
		}
		ids[r.ID] = true
	}
	// Every table and figure of §6 must be covered.
	for _, want := range []string{
		"table1", "fig1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig10", "table3", "table4", "table5", "table6", "fig11", "fig12",
		"fig13", "fig14",
	} {
		if !ids[want] {
			t.Errorf("experiment %s missing", want)
		}
	}
}

func TestByID(t *testing.T) {
	r, err := ByID("fig9")
	if err != nil || r.ID != "fig9" {
		t.Fatalf("ByID(fig9) = %+v, %v", r, err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown id should error")
	}
}

func TestConfigDefaultsAndBudgetFloor(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Scale != 1 || c.Seed == 0 {
		t.Fatalf("defaults wrong: %+v", c)
	}
	small := Config{Scale: 0.001}.withDefaults()
	if b := small.budget(70 * hour); b < 45*minute {
		t.Fatalf("budget floor broken: %v", b)
	}
}

func TestTableWriter(t *testing.T) {
	var buf bytes.Buffer
	tb := newTable("A", "Boooo")
	tb.row("1", "2")
	tb.row("longer", "3")
	tb.flush(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "A") || !strings.Contains(lines[0], "Boooo") {
		t.Fatalf("header %q", lines[0])
	}
}

func TestPanelsAndUnits(t *testing.T) {
	if tpccMySQL().unit() != "txn/min" {
		t.Fatal("TPC-C panels report txn/min")
	}
	if sysbenchWOMySQL().unit() != "txn/s" {
		t.Fatal("sysbench panels report txn/s")
	}
	for _, p := range []panel{tpccMySQL(), sysbenchROMySQL(), sysbenchWOMySQL(), sysbenchRWMySQL(), tpccPostgres(), productionMySQL()} {
		if err := p.Workload().Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

// TestSmallScaleRunners executes the cheaper experiments end to end at a
// tiny scale, checking they produce output without error. The expensive
// multi-method figures are covered by the benchmarks and by
// cmd/hunter-repro.
func TestSmallScaleRunners(t *testing.T) {
	if testing.Short() {
		t.Skip("runs tuning sessions")
	}
	cfg := Config{Scale: 0.02, Seed: 9}
	for _, id := range []string{"table1", "fig5", "fig7", "chaos", "safety", "evalcost"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			r, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := r.Run(cfg, &buf); err != nil {
				t.Fatal(err)
			}
			if buf.Len() == 0 {
				t.Fatal("no output")
			}
		})
	}
}
