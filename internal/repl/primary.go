// Package repl implements streaming write-ahead-log replication: a primary
// ships its log to read replicas, which apply committed transactions through
// the regular transaction machinery while serving snapshot reads. A joining
// replica with no state is seeded with a hot backup first; a returning
// replica resumes from its durable replication watermark. Replicas
// acknowledge applied positions so the primary can report per-replica lag,
// and a replica can be promoted to a writable primary when the original
// fails.
package repl

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"sedna/internal/core"
	"sedna/internal/metrics"
	"sedna/internal/wal"
	"sedna/internal/wire"
)

// needSeed ends the error a primary answers a stream request with when the
// replica cannot resume from where it asks: a replica that reads it stops
// instead of retrying, since only a new seed can bring it back.
const needSeed = "need a seed"

// shipChunk bounds how many log bytes one FrameWAL carries.
const shipChunk = 256 << 10

// seedChunk bounds how many file bytes one FrameSeedData carries.
const seedChunk = 1 << 20

// heartbeatEvery is how often a caught-up stream emits its durable LSN.
const heartbeatEvery = 200 * time.Millisecond

// Primary manages the replication streams of one database. The server hands
// it connections that sent MsgReplicate; each becomes one outgoing stream.
type Primary struct {
	db      *core.Database
	shipped *metrics.Counter
	lag     *metrics.Gauge

	mu      sync.Mutex
	streams map[*stream]struct{}
	closed  bool
}

// stream is one connected replica.
type stream struct {
	conn    net.Conn
	addr    string
	since   time.Time
	acked   atomic.Uint64 // replica's restart LSN: everything below is applied
	hold    *wal.Hold     // keeps the primary's log from acked on
	seeding atomic.Bool
	stop    chan struct{}
	once    sync.Once
}

func (st *stream) close() { st.once.Do(func() { close(st.stop); st.conn.Close() }) }

// NewPrimary creates the replication manager for a database. It reports
// into the database's metrics registry under the "repl." family.
func NewPrimary(db *core.Database) *Primary {
	reg := db.Metrics()
	return &Primary{
		db:      db,
		shipped: reg.Counter("repl.records_shipped"),
		lag:     reg.Gauge("repl.replica_lag_lsn"),
		streams: make(map[*stream]struct{}),
	}
}

// ReplicaStatus describes one connected replica, a <replica> element of
// doc("$replication").
type ReplicaStatus struct {
	Addr     string `json:"addr"`
	State    string `json:"state"` // "seeding" or "streaming"
	AckedLSN uint64 `json:"acked_lsn"`
	LagLSNs  uint64 `json:"lag_lsns"` // durable LSN minus acknowledged LSN
	Seconds  int64  `json:"connected_s"`
}

// Status reports every connected replica.
func (p *Primary) Status() []ReplicaStatus {
	durable := p.db.WAL().DurableLSN()
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]ReplicaStatus, 0, len(p.streams))
	for st := range p.streams {
		s := ReplicaStatus{
			Addr:     st.addr,
			State:    "streaming",
			AckedLSN: st.acked.Load(),
			Seconds:  int64(time.Since(st.since).Seconds()),
		}
		if st.seeding.Load() {
			s.State = "seeding"
		}
		if durable > s.AckedLSN {
			s.LagLSNs = durable - s.AckedLSN
		}
		out = append(out, s)
	}
	return out
}

// Close terminates every replication stream, unblocking their server
// goroutines. The primary keeps accepting new streams only through
// ServeConn, which fails once closed.
func (p *Primary) Close() {
	p.mu.Lock()
	p.closed = true
	streams := make([]*stream, 0, len(p.streams))
	for st := range p.streams {
		streams = append(streams, st)
	}
	p.mu.Unlock()
	for _, st := range streams {
		st.close()
	}
}

func (p *Primary) register(st *stream) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return fmt.Errorf("repl: primary is closed")
	}
	p.streams[st] = struct{}{}
	return nil
}

func (p *Primary) unregister(st *stream) {
	p.mu.Lock()
	delete(p.streams, st)
	p.mu.Unlock()
	p.updateLag()
}

// updateLag publishes the worst-replica lag: durable LSN minus the smallest
// acknowledged LSN (0 with no replicas connected).
func (p *Primary) updateLag() {
	durable := p.db.WAL().DurableLSN()
	var minAcked uint64
	first := true
	p.mu.Lock()
	for st := range p.streams {
		if a := st.acked.Load(); first || a < minAcked {
			minAcked, first = a, false
		}
	}
	p.mu.Unlock()
	var lag uint64
	if !first && durable > minAcked {
		lag = durable - minAcked
	}
	p.lag.Set(int64(lag))
}

// ServeConn runs one replication stream over a connection whose MsgReplicate
// request is req. It blocks until the replica disconnects or the primary is
// closed; the caller owns (and closes) the connection. With NeedSeed the
// replica first receives a hot backup taken on the spot; otherwise the WAL
// stream starts at req.FromLSN, which must lie between the oldest retained
// LSN and the durable LSN. Either way the stream holds the primary's log
// from the replica's acknowledged restart LSN on until it disconnects.
func (p *Primary) ServeConn(conn net.Conn, req *wire.Request) error {
	st := &stream{conn: conn, addr: conn.RemoteAddr().String(), since: time.Now(), stop: make(chan struct{})}
	refuse := func(err error) error {
		wire.WriteResponse(conn, wire.MsgError, &wire.Response{Error: err.Error()})
		return err
	}
	log := p.db.WAL()
	start := req.FromLSN
	if req.NeedSeed {
		// Hold the log from before the seed's checkpoint, so no checkpoint
		// can retire where the stream will start while the seed is taken.
		start = log.NextLSN()
	} else if durable := log.DurableLSN(); start > durable {
		return refuse(fmt.Errorf("repl: requested LSN %d past durable %d (%s)", start, durable, needSeed))
	}
	hold, err := log.Hold(wal.HoldReplica, start)
	if err != nil {
		if errors.Is(err, wal.ErrRetired) && !req.NeedSeed {
			err = fmt.Errorf("repl: requested LSN %d is below the oldest retained LSN %d (%s)", start, log.OldestLSN(), needSeed)
		}
		return refuse(err)
	}
	defer hold.Release()
	st.hold = hold
	var seedDir string
	if req.NeedSeed {
		dir, err := os.MkdirTemp("", "sedna-seed-")
		if err != nil {
			return refuse(err)
		}
		defer os.RemoveAll(dir)
		if err := p.db.SeedBackup(dir); err != nil {
			return refuse(fmt.Errorf("repl: seed backup: %w", err))
		}
		m, err := core.ReadBackupManifest(dir)
		if err != nil {
			return refuse(err)
		}
		seedDir, start = dir, m.DurableLSN
		hold.Move(start)
		st.seeding.Store(true)
	}
	if err := p.register(st); err != nil {
		return refuse(err)
	}
	defer p.unregister(st)
	defer st.close()
	st.acked.Store(start)

	hs, err := json.Marshal(wire.Handshake{Seed: req.NeedSeed, StartLSN: start})
	if err != nil {
		return err
	}
	if err := wire.WriteResponse(conn, wire.MsgResult, &wire.Response{Data: hs}); err != nil {
		return err
	}
	if seedDir != "" {
		if err := p.sendSeed(conn, seedDir); err != nil {
			return fmt.Errorf("repl: seed transfer: %w", err)
		}
		st.seeding.Store(false)
	}

	// Acks flow back on the same connection; a read error there also ends
	// the stream (the replica is gone).
	go func() {
		defer st.close()
		for {
			typ, body, err := wire.ReadFrame(conn)
			if err != nil {
				return
			}
			if typ == wire.FrameAck && len(body) == 8 {
				acked := binary.LittleEndian.Uint64(body)
				st.acked.Store(acked)
				st.hold.Move(acked)
				p.updateLag()
			}
		}
	}()
	return p.streamLog(st, start)
}

// sendSeed ships every file of the backup directory.
func (p *Primary) sendSeed(conn net.Conn, dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	buf := make([]byte, seedChunk)
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		hdr, err := json.Marshal(wire.SeedFile{Name: e.Name(), Size: info.Size()})
		if err != nil {
			return err
		}
		if err := wire.WriteFrame(conn, wire.FrameSeedFile, hdr); err != nil {
			return err
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		for {
			n, rerr := f.Read(buf)
			if n > 0 {
				if err := wire.WriteFrame(conn, wire.FrameSeedData, buf[:n]); err != nil {
					f.Close()
					return err
				}
			}
			if rerr != nil {
				break
			}
		}
		f.Close()
	}
	return wire.WriteFrame(conn, wire.FrameSeedDone, nil)
}

// streamLog tails the log from pos, shipping record-aligned chunks as they
// become durable and heartbeating the durable LSN when caught up.
func (p *Primary) streamLog(st *stream, pos uint64) error {
	rd, err := p.db.WAL().OpenReader()
	if err != nil {
		return err
	}
	defer rd.Close()
	notify := make(chan struct{}, 1)
	cancel := p.db.WAL().NotifyDurable(notify)
	defer cancel()
	var hdr [8]byte
	for {
		select {
		case <-st.stop:
			return nil
		default:
		}
		data, next, n, err := rd.ReadRecords(pos, shipChunk)
		if err != nil {
			return err
		}
		if n > 0 {
			frame := make([]byte, 8+len(data))
			binary.LittleEndian.PutUint64(frame, pos)
			copy(frame[8:], data)
			if err := wire.WriteFrame(st.conn, wire.FrameWAL, frame); err != nil {
				return err
			}
			p.shipped.Add(uint64(n))
			pos = next
			continue
		}
		binary.LittleEndian.PutUint64(hdr[:], p.db.WAL().DurableLSN())
		if err := wire.WriteFrame(st.conn, wire.FrameHeartbeat, hdr[:]); err != nil {
			return err
		}
		select {
		case <-notify:
		case <-st.stop:
			return nil
		case <-time.After(heartbeatEvery):
		}
	}
}
