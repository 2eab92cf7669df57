package repl

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"isrl/internal/wal"
)

// Node is one end of a replication link: a primary shipping its journal to
// a standby, or a follower applying the stream and ready to promote.
// Constructors do not start goroutines — wire OnPromote and build the HTTP
// server first, then call Start.
type Node struct {
	log  *wal.Log
	opts Options

	target string       // primary: follower address to dial
	ln     net.Listener // follower: accept socket

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu        sync.Mutex
	role      string // "primary" or "follower"
	started   bool
	closed    bool
	promoting bool // Promote entered: epoch bump + recovery in flight
	promoted  bool // Promote finished: Role() now reports "primary"
	onPromote func(epoch uint64, states []wal.SessionState)
	stats     Stats

	// Primary tail ring: consecutive entries covering (floor, floor+len],
	// allocated once at RingCap capacity and circular once full — ring[head]
	// is then the oldest entry.
	// A follower whose resume LSN is below floor must take a snapshot.
	// floorBytes is the cumulative journal position at the floor entry (-1
	// when lost to a feed gap), so shipped-byte accounting has a baseline
	// for the first ring entry. untail removes the feedEntry sink from the
	// log.
	ring       []wal.Entry
	head       int
	floor      int64
	floorBytes int64
	untail     func()
	notify     chan struct{}
	ackLSN     int64 // highest LSN the follower acknowledged
	sid        uint64

	// Follower apply position within the primary's current stream.
	appliedLSN   int64
	appliedBytes int64
	primaryLSN   int64 // highest position the primary announced
	primaryBytes int64
	lastSID      uint64
	lastSeen     time.Time
	everSeen     bool
}

// NewPrimary builds a primary that will ship log to the follower at target
// (host:port). Start begins dialing; until then nothing happens.
func NewPrimary(log *wal.Log, target string, opts Options) *Node {
	ctx, cancel := context.WithCancel(context.Background())
	n := &Node{
		log: log, opts: opts, target: target, role: "primary",
		ctx: ctx, cancel: cancel,
		ring:   make([]wal.Entry, 0, opts.ringCap()),
		notify: make(chan struct{}, 1),
		sid:    streamID(opts.Seed),
	}
	return n
}

// NewFollower builds a follower listening on addr for a primary's stream.
// It binds the socket eagerly (so Addr works and the primary can dial
// before Start) but accepts no connections until Start.
func NewFollower(log *wal.Log, addr string, opts Options) (*Node, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("repl: listen %s: %w", addr, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := &Node{
		log: log, opts: opts, ln: ln, role: "follower",
		ctx: ctx, cancel: cancel,
		notify: make(chan struct{}, 1),
		sid:    streamID(opts.Seed),
	}
	return n, nil
}

// streamID derives the resume token a primary advertises; a restarted
// primary gets a fresh id so followers discard stale stream positions.
func streamID(seed int64) uint64 {
	x := uint64(seed)
	if seed == 0 {
		x = uint64(time.Now().UnixNano())
	}
	id := splitmix64(x)
	if id == 0 {
		id = 1
	}
	return id
}

// OnPromote registers the callback invoked (from the watchdog or Promote)
// after the epoch bump, with the new epoch and a consistent snapshot of
// every journaled session — the server's Recover hook. Must be called
// before Start.
func (n *Node) OnPromote(fn func(epoch uint64, states []wal.SessionState)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.onPromote = fn
}

// Start launches the node's goroutines: the ship loop for a primary (fed
// by the journal tail sink it installs), accept loop plus promotion
// watchdog for a follower.
func (n *Node) Start() {
	n.mu.Lock()
	if n.started || n.closed {
		n.mu.Unlock()
		return
	}
	n.started = true
	n.mu.Unlock()
	mEpoch.Set(int64(n.log.Epoch()))
	if n.target != "" {
		// Install the sink before returning so every append committed after
		// Start() reaches the ring (a missed entry would force a needless
		// snapshot resync). Tail reports the position the sink starts
		// after; an entry fed before the floor is set here restarted the
		// ring at exactly that position, so only its byte baseline is
		// filled in.
		pos, untail := n.log.Tail(n.feedEntry)
		n.mu.Lock()
		n.untail = untail
		if len(n.ring) == 0 {
			n.floor, n.floorBytes = pos.LSN, pos.Bytes
		} else if n.floor == pos.LSN {
			n.floorBytes = pos.Bytes
		}
		n.mu.Unlock()
		n.wg.Add(1)
		go n.shipLoop()
		return
	}
	n.mu.Lock()
	n.lastSeen = time.Now()
	n.mu.Unlock()
	n.wg.Add(1)
	go n.acceptLoop()
	if n.opts.PromoteAfter > 0 {
		n.wg.Add(1)
		go n.watchdog()
	}
}

// Close stops every goroutine and releases the listener. Idempotent.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	untail := n.untail
	n.mu.Unlock()
	if untail != nil {
		untail()
	}
	n.cancel()
	if n.ln != nil {
		n.ln.Close()
	}
	n.wg.Wait()
	return nil
}

// Addr returns the follower's listen address ("" on a primary).
func (n *Node) Addr() string {
	if n.ln == nil {
		return ""
	}
	return n.ln.Addr().String()
}

// Role reports "primary" or "follower"; a promoted follower reports
// "primary". Implements server.Replication.
func (n *Node) Role() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.promoted {
		return "primary"
	}
	return n.role
}

// Epoch returns the journal's durable failover epoch. Implements
// server.Replication.
func (n *Node) Epoch() uint64 { return n.log.Epoch() }

// Fenced reports whether this node's journal rejects appends because a
// higher epoch exists — a deposed primary. Implements server.Replication.
func (n *Node) Fenced() bool { return n.log.Fenced() }

// Lag returns how far the passive side trails the active one, in records
// and bytes: on a primary, local position minus the follower's last ack;
// on a follower, the primary's last announced position minus what has been
// applied. Implements server.Replication.
func (n *Node) Lag() (records, bytes int64) {
	pos := n.log.Pos() // before n.mu: the lock order is l.mu → n.mu
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role == "primary" && !n.promoted {
		records, bytes = pos.LSN-n.ackLSN, 0
		if records < 0 {
			records = 0
		}
		return records, bytes
	}
	records = n.primaryLSN - n.appliedLSN
	bytes = n.primaryBytes - n.appliedBytes
	if records < 0 {
		records = 0
	}
	if bytes < 0 {
		bytes = 0
	}
	return records, bytes
}

// Stats returns a copy of the node's counters.
func (n *Node) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// Promote bumps the failover epoch, invokes the OnPromote hook with a
// consistent session snapshot, and only then flips Role() to "primary".
// The order matters: the epoch bump makes stale primaries deniable at
// once, but the role flip is what opens the server's replication gate —
// it must wait until the hook has rebuilt the sessions, or a fast client
// would see 404s instead of 503s mid-failover. Idempotent; safe to call
// manually even when auto-promotion is disabled. A failed epoch append
// clears the in-flight flag so the caller (or the watchdog) can retry.
func (n *Node) Promote() error {
	n.mu.Lock()
	if n.promoting || n.closed {
		n.mu.Unlock()
		return nil
	}
	n.promoting = true
	cb := n.onPromote
	applied := n.appliedLSN
	n.mu.Unlock()

	epoch := n.log.Epoch() + 1
	if err := n.log.SetEpoch(epoch); err != nil {
		// Leave the node promotable: a wedged `promoting` flag would make
		// every later Promote a no-op, shed all client traffic forever, and
		// deny even a healthy primary's stream.
		n.mu.Lock()
		n.promoting = false
		n.mu.Unlock()
		return fmt.Errorf("repl: promote: %w", err)
	}
	mPromotions.Inc()
	mEpoch.Set(int64(epoch))
	n.opts.logger().Warn("repl: promoting to primary",
		"epoch", epoch, "applied_lsn", applied)
	if cb != nil {
		states, _, _ := n.log.ReplSnapshot()
		cb(epoch, states)
	}
	n.mu.Lock()
	n.promoted = true
	n.stats.Promotions++
	n.mu.Unlock()
	return nil
}
