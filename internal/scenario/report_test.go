package scenario

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// nsAll is cmd/edmsim's ns-all spec: two netsim phases with every event kind
// and chaos. One of its ops is deferred by a link-down and then discarded by
// a drop burst, the op a hand-built netsim report once counted among its
// failovers and no phase row did.
const nsAll = `{"name":"ns-all","backend":"netsim","nodes":32,"seed":5,"protocol":"DCTCP",
"phases":[{"name":"a","count":2000,"load":0.5,"read_frac":0.5,"profile":"memcached"},
{"name":"b","count":2000,"load":0.8,"read_frac":0.3,"profile":"hadoop"}],
"events":[{"kind":"link-down","node":3,"at":2000000,"until":9000000},
{"kind":"drop","node":4,"at":1000000,"until":30000000,"prob":0.3},
{"kind":"corrupt","node":5,"at":1000000,"until":30000000},
{"kind":"leave","node":7,"at":5000000},{"kind":"join","node":9,"at":4000000}],
"chaos":{"link_flaps":5,"corrupt_bursts":3}}`

// TestReportTotalsArePhaseSums: on every backend a report's op counters are
// the sums of its phase rows, and the recovery summary has one sample per
// failover.
func TestReportTotalsArePhaseSums(t *testing.T) {
	two := func(count int, load float64) []Phase {
		return []Phase{
			{Name: "a", Count: count, Load: load, ReadFrac: 0.5, Profile: "fixed64"},
			{Name: "b", Count: count, Load: load, ReadFrac: 0.3, Profile: "fixed64"},
		}
	}
	ns, us := sim.Nanosecond, sim.Microsecond
	all, err := Load(strings.NewReader(nsAll))
	if err != nil {
		t.Fatal(err)
	}
	specs := []*Spec{
		all,
		{Name: "netsim-small", Backend: BackendNetsim, Nodes: 16, Seed: 2, Protocol: "DCTCP",
			Phases: two(800, 0.6),
			Events: []Event{
				{Kind: LinkDown, Node: 1, At: 200 * ns, Until: 600 * ns},
				{Kind: DropBurst, Node: 1, At: 200 * ns, Until: 20 * us, Prob: 0.5},
				{Kind: CorruptBurst, Node: 2, At: 0, Until: 20 * us},
			}},
		{Name: "fabric-small", Backend: BackendFabric, Nodes: 8, Seed: 2,
			Phases: two(400, 0.3),
			Events: []Event{
				{Kind: LinkDown, Node: 2, At: 1 * us, Until: 2 * us},
				{Kind: CorruptBurst, Node: 5, At: 1 * us, Until: 4 * us, OneIn: 16},
			}},
		{Name: "live-small", Backend: BackendLive, Nodes: 4, Seed: 2,
			Phases: two(200, 0.4),
			Events: []Event{
				{Kind: LinkDown, Node: 1, At: 1 * us, Until: 2 * us},
				{Kind: CorruptBurst, Node: 2, At: 2 * us, Until: 4 * us, OneIn: 4},
			}},
		{Name: "cluster-small", Backend: BackendLiveCluster, Nodes: 4, Seed: 2,
			DetectDelay: 2 * us,
			Phases:      two(200, 0.3),
			Events: []Event{
				{Kind: LinkDown, Node: 1, At: 1 * us, Until: 2 * us},
				{Kind: NodeLeave, Node: 3, At: 3 * us},
			}},
	}
	for _, spec := range specs {
		t.Run(spec.Name, func(t *testing.T) {
			rep, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			var issued, done, dropped, failover, corrupt int
			for _, p := range rep.Phases {
				issued += p.Issued
				done += p.Done
				dropped += p.Dropped
				failover += p.Failover
				corrupt += p.Corrupt
			}
			if rep.Issued != issued || rep.Completed != done || rep.Dropped != dropped ||
				rep.Failovers != failover || rep.Corrupted != corrupt {
				t.Errorf("totals issued %d completed %d dropped %d failovers %d corrupted %d;"+
					" phase sums %d %d %d %d %d",
					rep.Issued, rep.Completed, rep.Dropped, rep.Failovers, rep.Corrupted,
					issued, done, dropped, failover, corrupt)
			}
			if rep.Recovery.N != rep.Failovers {
				t.Errorf("recovery has %d samples for %d failovers", rep.Recovery.N, rep.Failovers)
			}
			if rep.Failovers == 0 {
				t.Errorf("no failovers: the spec exercises none of the counters it checks\n%s", render(t, rep))
			}
			t.Logf("%s\n%s", spec.Name, render(t, rep))
		})
	}
}
