package fleet

import (
	"reflect"
	"testing"

	"e3/internal/cluster"
)

// TestReplicasWithSameInventoryShareOnePlan pins the plan memo in New:
// on the uneven fleet, replicas of one inventory deploy from the very
// same allocation slice (so the planner ran once per inventory), and
// that shared plan is exactly what planning the replica alone yields.
func TestReplicasWithSameInventoryShareOnePlan(t *testing.T) {
	cfg := HeteroConfig(4, 2)
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	first := make(map[string]*Replica)
	for i, rep := range f.replicas {
		if len(rep.allocs) == 0 {
			t.Fatalf("replica %d deployed without a plan", i)
		}
		key := rep.Spec.describe()
		if prev, ok := first[key]; ok {
			if &rep.allocs[0] != &prev.allocs[0] {
				t.Errorf("replica %d re-planned inventory %s already planned for replica %d", i, key, prev.Index)
			}
		} else {
			for _, other := range first {
				if &rep.allocs[0] == &other.allocs[0] {
					t.Errorf("replica %d (%s) shares replica %d's plan (%s)", i, key, other.Index, other.Spec.describe())
				}
			}
			first[key] = rep
		}

		fresh, err := planWithBackoff(cluster.New(rep.Spec.GPUs, 2), replicaTenants(cfg, i))
		if err != nil {
			t.Fatalf("replica %d: fresh plan: %v", i, err)
		}
		if !reflect.DeepEqual(rep.allocs, fresh) {
			t.Errorf("replica %d: deployed plan differs from planning it alone\ndeployed: %+v\nfresh:    %+v", i, rep.allocs, fresh)
		}
	}
	if len(first) != 2 {
		t.Fatalf("HeteroConfig(4) has %d distinct inventories, want 2", len(first))
	}
}
