package fleet

import (
	"testing"
	"time"
)

func TestSyntheticTenantsDeterministic(t *testing.T) {
	a := SyntheticTenants(50, 9)
	b := SyntheticTenants(50, 9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("tenant %d differs across generations: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := SyntheticTenants(50, 10)
	same := 0
	for i := range a {
		if a[i].Budget == c[i].Budget && a[i].Target == c[i].Target {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different fleet seeds produced identical tenants")
	}
	for i, spec := range a {
		if spec.ID != i {
			t.Fatalf("tenant %d has ID %d", i, spec.ID)
		}
		if spec.Budget < 2*time.Hour || spec.Budget > 6*time.Hour {
			t.Fatalf("tenant %d budget %s out of range", i, spec.Budget)
		}
		if spec.Target <= 0 {
			t.Fatalf("tenant %d has no SLO target", i)
		}
		if _, err := newProfile(spec.Profile); err != nil {
			t.Fatal(err)
		}
	}
}
