// Livecluster: the same consensus state machines that run on the simulator
// run here on two real substrates — the goroutine runtime (every node a
// goroutine, the MAC layer real timers) and the UDP runtime (every node a
// loopback UDP socket, messages gob-encoded, reliability by
// retransmission). This is the paper's deployability claim in action: the
// algorithms are unchanged, only the substrate differs.
//
// Run with:
//
//	go run ./examples/livecluster
//
// It exits 1 when a run errors or breaks consensus.
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/core/twophase"
	"github.com/absmac/absmac/internal/core/wpaxos"
	"github.com/absmac/absmac/internal/graph"
	"github.com/absmac/absmac/internal/live"
	"github.com/absmac/absmac/internal/netmac"
)

func main() {
	run := func(name string, g *graph.Graph, factory amac.Factory, inputs []amac.Value) {
		res, err := live.Run(context.Background(), live.Config{
			Graph:   g,
			Inputs:  inputs,
			Factory: factory,
			Fack:    3 * time.Millisecond,
			Seed:    time.Now().UnixNano(),
			Timeout: 20 * time.Second,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		rep := res.Report(inputs)
		fmt.Printf("%-22s n=%-3d decided value %d in %v wall-clock (%d broadcasts); consensus ok: %v\n",
			name, g.N(), rep.Value, res.Elapsed.Round(time.Millisecond), res.Broadcasts, rep.OK())
		if !rep.OK() {
			os.Exit(1)
		}
	}

	// Single-hop cluster: two-phase, which needs no knowledge of n.
	clique := graph.Clique(12)
	inputs := make([]amac.Value, 12)
	for i := range inputs {
		inputs[i] = amac.Value(i % 2)
	}
	run("two-phase on clique", clique, twophase.Factory, inputs)

	// Multihop mesh: wPAXOS across a random connected topology.
	mesh := graph.RandomConnected(20, 0.15, 99)
	meshInputs := make([]amac.Value, 20)
	for i := range meshInputs {
		meshInputs[i] = amac.Value((i / 3) % 2)
	}
	run("wPAXOS on random mesh", mesh, liveFactory(wpaxos.Config{N: 20}), meshInputs)

	// A long line: the O(D*Fack) shape is visible in wall-clock time.
	line := graph.Line(24)
	lineInputs := make([]amac.Value, 24)
	for i := 12; i < 24; i++ {
		lineInputs[i] = 1
	}
	run("wPAXOS on 24-node line", line, liveFactory(wpaxos.Config{N: 24}), lineInputs)

	// The same algorithms over real UDP sockets on loopback: gob on the
	// wire, reliability by retransmission, Fack emergent.
	netmac.RegisterMessages(twophase.Phase1{}, twophase.Phase2{}, &wpaxos.Combined{})
	udpGraph := graph.Grid(3, 4)
	udpInputs := make([]amac.Value, udpGraph.N())
	for i := range udpInputs {
		udpInputs[i] = amac.Value(i % 2)
	}
	udpRes, err := netmac.Run(context.Background(), netmac.Config{
		Graph:   udpGraph,
		Inputs:  udpInputs,
		Factory: wpaxos.NewFactory(wpaxos.Config{N: udpGraph.N()}),
		RTO:     2 * time.Millisecond,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "udp: %v\n", err)
		os.Exit(1)
	}
	udpRep := udpRes.Report(udpInputs)
	fmt.Printf("%-22s n=%-3d decided value %d in %v over UDP (%d packets, %d bytes, %d retransmits); consensus ok: %v\n",
		"wPAXOS over UDP grid", udpGraph.N(), udpRep.Value, udpRes.Elapsed.Round(time.Millisecond),
		udpRes.PacketsSent, udpRes.BytesSent, udpRes.Retransmits, udpRep.OK())
	if !udpRep.OK() {
		os.Exit(1)
	}
}

// liveFactory builds wPAXOS nodes with New rather than NewFactory: the
// factory's send-buffer reuse is unsafe on the goroutine runtime, where a
// receiver may still be reading a message when its sender's ack lands.
// (netmac encodes each message inside Broadcast, so the UDP run above
// keeps NewFactory.)
func liveFactory(cfg wpaxos.Config) amac.Factory {
	return func(nc amac.NodeConfig) amac.Algorithm { return wpaxos.New(nc.Input, cfg) }
}
