package experiments

import (
	"testing"

	"github.com/tacktp/tack/internal/netem"
	"github.com/tacktp/tack/internal/phy"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/topo"
	"github.com/tacktp/tack/internal/transport"
)

// goldenRun is the determinism fingerprint of one simulated transfer.
type goldenRun struct {
	vtime   sim.Time // virtual completion time
	fired   uint64   // loop events executed
	acks    int      // receiver acknowledgments sent
	retrans int      // sender retransmissions
}

// runGolden moves a 4 MiB object over the hybrid WLAN+WAN path the
// benchmark's wlan-sim workload uses: 802.11n, then a 200 Mbit/s, 10 ms
// one-way, 4 MiB-queue WAN hop with Gilbert–Elliott burst loss on the data
// direction.
func runGolden(t *testing.T, seed int64, cfg transport.Config) goldenRun {
	t.Helper()
	loop := sim.NewLoop(seed)
	path, _, _, _ := topo.HybridPath(loop,
		topo.WLANConfig{Standard: phy.Std80211n},
		topo.WANConfig{
			RateBps:    200e6,
			OWD:        10 * sim.Millisecond,
			QueueBytes: 4 << 20,
			Impair:     netem.Impairments{GE: netem.GilbertElliott{PEnterBad: 0.002, PExitBad: 0.3}},
		})
	cfg.ConnID = 1
	cfg.TransferBytes = 4 << 20
	flow, err := topo.NewFlow(loop, cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	flow.Start()
	for !flow.Sender.Done() && loop.Now() < 120*sim.Second {
		if !loop.Step() {
			break
		}
	}
	if !flow.Sender.Done() || flow.Receiver.Delivered() != cfg.TransferBytes {
		t.Fatalf("seed %d: transfer incomplete: done=%v delivered=%d",
			seed, flow.Sender.Done(), flow.Receiver.Delivered())
	}
	if bad := flow.Sender.Stats.BadFeedback; bad != 0 {
		t.Errorf("seed %d: honest receiver's feedback dropped %d times", seed, bad)
	}
	return goldenRun{
		vtime:   loop.Now(),
		fired:   loop.Fired(),
		acks:    flow.Receiver.Stats.AcksSent(),
		retrans: flow.Sender.Stats.Retransmits,
	}
}

// TestGoldenWLANTransfers pins the exact outcome of the TACK and legacy-BBR
// arms on fixed seeds. The simulation is deterministic, so any change to
// these numbers is a behaviour change of the engine, not noise: refactors
// of the transport must leave them bit-identical.
func TestGoldenWLANTransfers(t *testing.T) {
	golden := []struct {
		seed         int64
		tack, legacy goldenRun
	}{
		{1000, goldenRun{285914956, 12654, 51, 21}, goldenRun{383870810, 15885, 972, 27}},
		{1001, goldenRun{276357252, 12606, 49, 23}, goldenRun{359811514, 15715, 972, 14}},
		{1002, goldenRun{275521448, 12586, 48, 11}, goldenRun{353443484, 15665, 972, 6}},
		{1003, goldenRun{276587320, 12657, 50, 29}, goldenRun{358109513, 15788, 972, 20}},
	}
	for _, g := range golden {
		if got := runGolden(t, g.seed, tackConfig()); got != g.tack {
			t.Errorf("seed %d TACK arm = %+v, want %+v", g.seed, got, g.tack)
		}
		if got := runGolden(t, g.seed, legacyBBRConfig()); got != g.legacy {
			t.Errorf("seed %d legacy-BBR arm = %+v, want %+v", g.seed, got, g.legacy)
		}
	}
}
