package netmac

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/baseline/gatherall"
	"github.com/absmac/absmac/internal/core/twophase"
	"github.com/absmac/absmac/internal/core/wpaxos"
	"github.com/absmac/absmac/internal/graph"
	"github.com/absmac/absmac/internal/live"
)

var registerOnce sync.Once

func register() {
	registerOnce.Do(func() {
		RegisterMessages(
			twophase.Phase1{}, twophase.Phase2{},
			&wpaxos.Combined{},
			gatherall.PairMsg{},
		)
	})
}

func mixed(n int) []amac.Value {
	inputs := make([]amac.Value, n)
	for i := range inputs {
		inputs[i] = amac.Value(i % 2)
	}
	return inputs
}

func TestTwoPhaseOverUDP(t *testing.T) {
	register()
	inputs := mixed(6)
	res, err := Run(context.Background(), Config{
		Graph:   graph.Clique(6),
		Inputs:  inputs,
		Factory: twophase.Factory,
		RTO:     2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report(inputs)
	if !rep.OK() {
		t.Fatalf("%v", rep.Errors)
	}
	if res.PacketsSent == 0 || res.BytesSent == 0 {
		t.Fatal("no wire traffic counted")
	}
}

func TestWPaxosOverUDP(t *testing.T) {
	register()
	for i, g := range []*graph.Graph{graph.Line(5), graph.Grid(3, 3)} {
		inputs := mixed(g.N())
		audit := wpaxos.NewCountAudit()
		res, err := Run(context.Background(), Config{
			Graph:   g,
			Inputs:  inputs,
			Factory: wpaxos.NewFactory(wpaxos.Config{N: g.N(), Audit: audit}),
			RTO:     2 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		rep := res.Report(inputs)
		if !rep.OK() {
			t.Fatalf("case %d: %v", i, rep.Errors)
		}
		if v := audit.Violations(); len(v) != 0 {
			t.Fatalf("case %d: Lemma 4.2 violated over UDP: %v", i, v)
		}
	}
}

func TestGatherAllOverUDP(t *testing.T) {
	register()
	g := graph.Ring(7)
	inputs := mixed(7)
	res, err := Run(context.Background(), Config{
		Graph:   g,
		Inputs:  inputs,
		Factory: gatherall.NewFactory(7),
		RTO:     2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report(inputs)
	if !rep.OK() || rep.Value != 0 {
		t.Fatalf("report value=%d errors=%v", rep.Value, rep.Errors)
	}
}

func TestSingleNodeOverUDP(t *testing.T) {
	register()
	inputs := []amac.Value{1}
	res, err := Run(context.Background(), Config{
		Graph:   graph.Clique(1),
		Inputs:  inputs,
		Factory: twophase.Factory,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report(inputs)
	if !rep.OK() || rep.Value != 1 {
		t.Fatalf("single node: %v", rep.Errors)
	}
}

// silent never decides; exercises the timeout path.
type silent struct{}

func (silent) Start(amac.API)         {}
func (silent) OnReceive(amac.Message) {}
func (silent) OnAck(m amac.Message)   {}

// ping is a one-field message for substrate-level tests.
type ping struct{ From amac.NodeID }

func (ping) IDCount() int { return 1 }

// doubleSender broadcasts twice in Start — the second attempt finds the
// first in flight and is discarded — then decides its input.
type doubleSender struct{ cfg amac.NodeConfig }

func (d doubleSender) Start(api amac.API) {
	api.Broadcast(ping{From: d.cfg.ID})
	api.Broadcast(ping{From: d.cfg.ID})
	api.Decide(d.cfg.Input)
}
func (doubleSender) OnReceive(amac.Message) {}
func (doubleSender) OnAck(amac.Message)     {}

// TestDiscardsCounted: both wall-clock substrates count a broadcast
// attempted while one is in flight in Result.Discards.
func TestDiscardsCounted(t *testing.T) {
	RegisterMessages(ping{})
	inputs := mixed(3)
	factory := func(c amac.NodeConfig) amac.Algorithm { return doubleSender{cfg: c} }
	lres, err := live.Run(context.Background(), live.Config{Graph: graph.Clique(3), Inputs: inputs, Factory: factory})
	if err != nil {
		t.Fatal(err)
	}
	nres, err := Run(context.Background(), Config{Graph: graph.Clique(3), Inputs: inputs, Factory: factory, RTO: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		name string
		res  *live.Result
	}{{"live", lres}, {"netmac", &nres.Result}} {
		if r.res.Discards < 1 {
			t.Errorf("%s: Discards = %d after every node broadcast twice in Start, want >= 1", r.name, r.res.Discards)
		}
	}
}

func TestTimeoutOverUDP(t *testing.T) {
	register()
	inputs := mixed(2)
	_, err := Run(context.Background(), Config{
		Graph:   graph.Clique(2),
		Inputs:  inputs,
		Factory: func(amac.NodeConfig) amac.Algorithm { return silent{} },
		Timeout: 50 * time.Millisecond,
	})
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestValidationPanics(t *testing.T) {
	register()
	cases := []struct {
		name string
		cfg  Config
	}{
		{"nil graph", Config{}},
		{"bad inputs", Config{Graph: graph.Clique(2), Inputs: mixed(3), Factory: twophase.Factory}},
		{"nil factory", Config{Graph: graph.Clique(2), Inputs: mixed(2)}},
		{"bad ids", Config{Graph: graph.Clique(2), Inputs: mixed(2), Factory: twophase.Factory, IDs: []amac.NodeID{1, 2, 3}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			Run(context.Background(), tc.cfg)
		})
	}
}

// TestMetricsExposition mirrors the live substrate's exposition test over
// the UDP runtime: stamped snapshots with the wire-level counters.
func TestMetricsExposition(t *testing.T) {
	register()
	var buf bytes.Buffer
	inputs := mixed(5)
	res, err := Run(context.Background(), Config{
		Graph:           graph.Clique(5),
		Inputs:          inputs,
		Factory:         twophase.Factory,
		RTO:             2 * time.Millisecond,
		MetricsInterval: time.Millisecond,
		MetricsOut:      &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report(inputs).OK() {
		t.Fatalf("run not OK: %v", res.Report(inputs).Errors)
	}
	out := buf.String()
	if out == "" {
		t.Skip("run finished before the first exposition tick")
	}
	for _, want := range []string{"elapsed=", "net_broadcasts ", "net_packets_sent ", "net_decided "} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition output missing %q:\n%s", want, out)
		}
	}
}
