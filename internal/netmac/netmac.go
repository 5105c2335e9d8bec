// Package netmac is the repository's third substrate for the abstract MAC
// layer model: the same amac.Algorithm state machines run over real UDP
// sockets on the loopback interface, with gob-encoded wire messages and an
// application-level reliability layer (per-neighbor retransmission until
// acknowledged) that supplies exactly the model's contract — a broadcast
// reaches every neighbor, then the sender gets its acknowledgment.
//
// This is the paper's deployment claim taken literally (Section 1: "our
// upper bounds can be easily implemented in real wireless devices on
// existing MAC layers"): the unreliable datagram transport plays the radio,
// the retransmission layer plays the MAC, and the algorithms are byte-for-
// byte the ones analyzed on the simulator. Fack is emergent (finite but
// unknown), which is all the model requires.
package netmac

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/graph"
	"github.com/absmac/absmac/internal/live"
	"github.com/absmac/absmac/internal/mailbox"
	"github.com/absmac/absmac/internal/metrics"
)

// envelope wraps the algorithm message for gob: concrete message types
// must be registered via RegisterMessages before running.
type envelope struct {
	M amac.Message
}

// RegisterMessages registers concrete message types with gob so they can
// travel inside envelopes. Call it once per process for every message type
// an algorithm broadcasts (passing zero values is fine).
func RegisterMessages(ms ...amac.Message) {
	for _, m := range ms {
		gob.Register(m)
	}
}

// packet is the wire format.
type packet struct {
	Ack     bool
	Node    int   // sender index for data; acking receiver index for acks
	Seq     int64 // the broadcast sequence being carried / acknowledged
	Payload []byte
}

// Config describes one UDP execution.
type Config struct {
	// Graph, Inputs, Factory, IDs: as in the other substrates.
	Graph   *graph.Graph
	Inputs  []amac.Value
	Factory amac.Factory
	IDs     []amac.NodeID
	// RTO is the retransmission interval; 0 means DefaultRTO.
	RTO time.Duration
	// Timeout bounds the whole run; 0 means DefaultTimeout.
	Timeout time.Duration
	// MetricsInterval and MetricsOut enable periodic flight-recorder
	// exposition exactly as in the live substrate (live.ExposeMetrics),
	// extended with the wire-level counters.
	MetricsInterval time.Duration
	MetricsOut      io.Writer
}

// DefaultRTO is the retransmission interval when Config.RTO is zero.
const DefaultRTO = 5 * time.Millisecond

// DefaultTimeout bounds runs when Config.Timeout is zero.
const DefaultTimeout = 30 * time.Second

// ErrTimeout reports that the run timed out before every node decided.
var ErrTimeout = errors.New("netmac: run timed out before all nodes decided")

// Result extends the live substrate's result with wire-level counters.
type Result struct {
	live.Result
	// PacketsSent counts UDP datagrams sent (data and acks).
	PacketsSent int64
	// BytesSent counts UDP payload bytes sent.
	BytesSent int64
	// Retransmits counts data datagrams beyond each neighbor's first.
	Retransmits int64
}

// event is a mailbox entry.
type event struct {
	ack bool
	msg amac.Message
}

// node is the per-node network runtime.
type node struct {
	idx   int
	conn  *net.UDPConn
	box   *mailbox.Mailbox[event]
	peers []*net.UDPAddr // by node index; nil for non-neighbors

	mu            sync.Mutex
	lastDelivered map[int]int64 // highest seq delivered, per sender
	pendingSeq    int64         // broadcast awaiting app-level acks
	pendingWait   map[int]bool  // neighbors yet to ack
	pendingMsg    amac.Message
}

type runtime struct {
	cfg     Config
	rto     time.Duration
	nodes   []*node
	clock   atomic.Int64
	started time.Time

	resMu      sync.Mutex
	res        *Result
	undecided  atomic.Int64
	allDecided chan struct{}

	ctx context.Context
	wg  sync.WaitGroup
}

type api struct {
	rt       *runtime
	nd       *node
	inflight bool
}

func (a *api) ID() amac.NodeID {
	ids := a.rt.cfg.IDs
	return ids[a.nd.idx]
}

func (a *api) Now() int64 { return a.rt.clock.Add(1) }

func (a *api) Broadcast(m amac.Message) bool {
	if m == nil {
		panic(fmt.Sprintf("netmac: node %d broadcast a nil message", a.nd.idx))
	}
	if a.inflight {
		a.rt.resMu.Lock()
		a.rt.res.Discards++
		a.rt.resMu.Unlock()
		return false
	}
	a.inflight = true
	a.rt.broadcast(a.nd, m)
	return true
}

func (a *api) Decide(v amac.Value) {
	rt := a.rt
	i := a.nd.idx
	rt.resMu.Lock()
	already := rt.res.Decided[i]
	if !already {
		rt.res.Decided[i] = true
		rt.res.Decision[i] = v
		rt.res.DecideTime[i] = time.Since(rt.started)
	}
	rt.resMu.Unlock()
	if !already && rt.undecided.Add(-1) == 0 {
		close(rt.allDecided)
	}
}

// broadcast starts the reliability loop for one broadcast: transmit to
// every unacked neighbor each RTO until all acked, then deliver the MAC
// ack to the sender's own mailbox.
func (rt *runtime) broadcast(nd *node, m amac.Message) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(envelope{M: m}); err != nil {
		panic(fmt.Sprintf("netmac: encoding %T: %v (did you RegisterMessages it?)", m, err))
	}
	payload := buf.Bytes()

	nd.mu.Lock()
	nd.pendingSeq++
	seq := nd.pendingSeq
	nd.pendingWait = make(map[int]bool)
	for v, addr := range nd.peers {
		if addr != nil {
			nd.pendingWait[v] = true
		}
	}
	nd.pendingMsg = m
	done := len(nd.pendingWait) == 0
	nd.mu.Unlock()

	rt.resMu.Lock()
	rt.res.Broadcasts++
	rt.resMu.Unlock()

	if done {
		// No neighbors (n=1): ack immediately.
		nd.box.Push(event{ack: true, msg: m})
		return
	}

	pkt := packet{Node: nd.idx, Seq: seq, Payload: payload}
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		first := true
		ticker := time.NewTicker(rt.rto)
		defer ticker.Stop()
		for {
			nd.mu.Lock()
			if nd.pendingSeq != seq {
				nd.mu.Unlock()
				return // superseded (cannot happen: one broadcast at a time) or done
			}
			targets := make([]int, 0, len(nd.pendingWait))
			for v, waiting := range nd.pendingWait {
				if waiting {
					targets = append(targets, v)
				}
			}
			nd.mu.Unlock()
			if len(targets) == 0 {
				nd.box.Push(event{ack: true, msg: m})
				return
			}
			for _, v := range targets {
				rt.send(nd, nd.peers[v], pkt, !first)
			}
			first = false
			select {
			case <-ticker.C:
			case <-rt.ctx.Done():
				return
			}
		}
	}()
}

// send transmits one packet and accounts for it.
func (rt *runtime) send(nd *node, to *net.UDPAddr, pkt packet, retransmit bool) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(pkt); err != nil {
		panic(fmt.Sprintf("netmac: packet encode: %v", err))
	}
	n, err := nd.conn.WriteToUDP(buf.Bytes(), to)
	if err != nil {
		return // transient send errors are just "loss"; the RTO loop retries
	}
	rt.resMu.Lock()
	rt.res.PacketsSent++
	rt.res.BytesSent += int64(n)
	if retransmit && !pkt.Ack {
		rt.res.Retransmits++
	}
	rt.resMu.Unlock()
}

// expose is the UDP substrate's exposition goroutine body: the live
// substrate's loop (live.ExposeMetrics) over the wire-level counters.
func (rt *runtime) expose(every time.Duration, w io.Writer) {
	setCounter := func(c metrics.Counter, total int64) { c.Add(total - c.Value()) }
	live.ExposeMetrics(rt.ctx, w, every, rt.started, func(reg *metrics.Registry) {
		rt.resMu.Lock()
		b, pkts, bytes, rtx := rt.res.Broadcasts, rt.res.PacketsSent, rt.res.BytesSent, rt.res.Retransmits
		var dec int64
		for _, x := range rt.res.Decided {
			if x {
				dec++
			}
		}
		rt.resMu.Unlock()
		setCounter(reg.Counter("net_broadcasts"), b)
		setCounter(reg.Counter("net_packets_sent"), pkts)
		setCounter(reg.Counter("net_bytes_sent"), bytes)
		setCounter(reg.Counter("net_retransmits"), rtx)
		reg.Gauge("net_decided").Set(dec)
	})
}

// reader is the per-node socket loop: decode packets, deliver fresh data
// (acking every data packet, fresh or not), and clear reliability state on
// acks.
func (rt *runtime) reader(nd *node) {
	defer rt.wg.Done()
	buf := make([]byte, 64*1024)
	for {
		n, _, err := nd.conn.ReadFromUDP(buf)
		if err != nil {
			return // socket closed: run over
		}
		var pkt packet
		if err := gob.NewDecoder(bytes.NewReader(buf[:n])).Decode(&pkt); err != nil {
			continue // garbage datagram: drop, as a radio would
		}
		if pkt.Ack {
			nd.mu.Lock()
			if pkt.Seq == nd.pendingSeq {
				delete(nd.pendingWait, pkt.Node)
			}
			nd.mu.Unlock()
			continue
		}
		sender := pkt.Node
		if sender < 0 || sender >= len(nd.peers) || nd.peers[sender] == nil {
			continue // not a neighbor: a radio would not even hear it
		}
		// Always (re-)ack data; deliver only the next fresh sequence.
		rt.send(nd, nd.peers[sender], packet{Ack: true, Node: nd.idx, Seq: pkt.Seq}, false)
		nd.mu.Lock()
		fresh := pkt.Seq == nd.lastDelivered[sender]+1
		if fresh {
			nd.lastDelivered[sender] = pkt.Seq
		}
		nd.mu.Unlock()
		if !fresh {
			continue
		}
		var env envelope
		if err := gob.NewDecoder(bytes.NewReader(pkt.Payload)).Decode(&env); err != nil {
			panic(fmt.Sprintf("netmac: payload decode: %v (unregistered message type?)", err))
		}
		nd.box.Push(event{msg: env.M})
	}
}

// Run executes the configuration over loopback UDP until every node
// decides, the context is canceled, or the timeout elapses.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Graph == nil {
		panic("netmac: Config.Graph is nil")
	}
	n := cfg.Graph.N()
	if len(cfg.Inputs) != n {
		panic(fmt.Sprintf("netmac: %d inputs for %d nodes", len(cfg.Inputs), n))
	}
	if cfg.Factory == nil {
		panic("netmac: Config.Factory is nil")
	}
	if cfg.IDs == nil {
		cfg.IDs = make([]amac.NodeID, n)
		for i := range cfg.IDs {
			cfg.IDs[i] = amac.NodeID(i + 1)
		}
	}
	if len(cfg.IDs) != n {
		panic(fmt.Sprintf("netmac: %d ids for %d nodes", len(cfg.IDs), n))
	}
	rto := cfg.RTO
	if rto <= 0 {
		rto = DefaultRTO
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = DefaultTimeout
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	rt := &runtime{
		cfg:        cfg,
		rto:        rto,
		nodes:      make([]*node, n),
		allDecided: make(chan struct{}),
		ctx:        runCtx,
		started:    time.Now(),
		res: &Result{Result: live.Result{
			Decided:    make([]bool, n),
			Decision:   make([]amac.Value, n),
			DecideTime: make([]time.Duration, n),
		}},
	}
	rt.undecided.Store(int64(n))

	// Open every socket first, then wire neighbor addresses.
	addrs := make([]*net.UDPAddr, n)
	for i := 0; i < n; i++ {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			for j := 0; j < i; j++ {
				rt.nodes[j].conn.Close()
			}
			return nil, fmt.Errorf("netmac: listen: %w", err)
		}
		rt.nodes[i] = &node{
			idx:           i,
			conn:          conn,
			box:           mailbox.New[event](),
			lastDelivered: make(map[int]int64),
		}
		addrs[i] = conn.LocalAddr().(*net.UDPAddr)
	}
	for i := 0; i < n; i++ {
		rt.nodes[i].peers = make([]*net.UDPAddr, n)
		for _, v := range cfg.Graph.Neighbors(i) {
			rt.nodes[i].peers[v] = addrs[v]
		}
	}

	algs := make([]amac.Algorithm, n)
	for i := 0; i < n; i++ {
		algs[i] = cfg.Factory(amac.NodeConfig{ID: cfg.IDs[i], Input: cfg.Inputs[i]})
		if algs[i] == nil {
			panic(fmt.Sprintf("netmac: factory returned nil algorithm for node %d", i))
		}
	}

	for i := 0; i < n; i++ {
		rt.wg.Add(1)
		go rt.reader(rt.nodes[i])
	}
	if cfg.MetricsInterval > 0 && cfg.MetricsOut != nil {
		rt.wg.Add(1)
		go func() {
			defer rt.wg.Done()
			rt.expose(cfg.MetricsInterval, cfg.MetricsOut)
		}()
	}
	var loops sync.WaitGroup
	for i := 0; i < n; i++ {
		loops.Add(1)
		go func(i int) {
			defer loops.Done()
			a := &api{rt: rt, nd: rt.nodes[i]}
			algs[i].Start(a)
			for {
				ev, ok := rt.nodes[i].box.Pop()
				if !ok {
					return
				}
				if ev.ack {
					a.inflight = false
					algs[i].OnAck(ev.msg)
				} else {
					algs[i].OnReceive(ev.msg)
				}
			}
		}(i)
	}

	var err error
	select {
	case <-rt.allDecided:
	case <-time.After(timeout):
		err = ErrTimeout
	case <-ctx.Done():
		err = ctx.Err()
	}

	cancel()
	for _, nd := range rt.nodes {
		nd.conn.Close() // unblocks readers
		nd.box.Close()  // unblocks event loops
	}
	loops.Wait()
	rt.wg.Wait()

	rt.resMu.Lock()
	rt.res.Elapsed = time.Since(rt.started)
	out := rt.res
	rt.resMu.Unlock()
	return out, err
}
