package experiments

import (
	"strings"
	"testing"
)

func TestTemporalStudyShape(t *testing.T) {
	rep := report(t, NewSuite(Options{Quick: true, Seed: 1}), "temporal")
	if rep.ID != "temporal" {
		t.Fatalf("report id %q", rep.ID)
	}
	for _, sched := range temporalSchedules {
		if !strings.Contains(rep.Text, sched.name) {
			t.Errorf("report missing schedule %s:\n%s", sched.name, rep.Text)
		}
		if rep.Metrics[sched.name+"/LRU"] != 1.0 {
			t.Errorf("%s: LRU not normalised to 1.0: %v", sched.name, rep.Metrics)
		}
		if rep.Metrics[sched.name+"/HPE"] == 0 {
			t.Errorf("%s: no HPE metric", sched.name)
		}
	}
}

func TestColocationStudyShape(t *testing.T) {
	rep := report(t, NewSuite(Options{Quick: true, Seed: 1}), "colocation")
	if rep.ID != "colocation" {
		t.Fatalf("report id %q", rep.ID)
	}
	for _, tenant := range []string{"HSD", "BFS"} {
		if !strings.Contains(rep.Text, tenant) {
			t.Errorf("report missing tenant %s", tenant)
		}
		if rep.Metrics["LRU/"+tenant+"/faults"] == 0 {
			t.Errorf("tenant %s recorded no faults under LRU", tenant)
		}
	}
	// The interleave sweep must actually vary contention: at least one
	// quantum's cross-eviction total must differ from another's.
	a, b, c := rep.Metrics["iv256/cross"], rep.Metrics["iv1024/cross"], rep.Metrics["iv4096/cross"]
	if a == b && b == c {
		t.Errorf("interleave sweep flat: %v %v %v", a, b, c)
	}
}
