package wire

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"

	"starmagic"
	"starmagic/internal/obs"
)

// Config configures a Server.
type Config struct {
	// User and Password authenticate clients (mysql_native_password). An
	// empty User accepts any username; an empty Password accepts clients
	// that send no password.
	User     string
	Password string
	// MaxConns caps concurrently served connections; 0 means unlimited.
	// This bounds goroutines per connection — per-query concurrency is
	// governed separately by the database's admission queue, which every
	// wire query execution passes through.
	MaxConns int
}

// Server serves the MySQL client/server protocol over a starmagic database.
// Each accepted connection runs in its own goroutine; query execution
// inside a connection flows through the database's admission queue and
// memory governor exactly like embedded use, so wire clients and embedded
// callers share one set of resource controls.
type Server struct {
	db       *starmagic.DB
	user     string
	password string
	maxConns int

	metrics obs.WireSink

	mu      sync.Mutex
	ln      net.Listener
	closed  bool
	cancel  context.CancelFunc
	baseCtx context.Context
	wg      sync.WaitGroup
	active  atomic.Int64
	connSeq atomic.Uint32
}

// NewServer wraps db in a wire server. The database stays fully usable
// through the embedded API while served.
func NewServer(db *starmagic.DB, cfg Config) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		db:       db,
		user:     cfg.User,
		password: cfg.Password,
		maxConns: cfg.MaxConns,
		baseCtx:  ctx,
		cancel:   cancel,
	}
}

// Serve accepts connections from ln until Close. It returns nil after Close;
// any other listener error is returned as-is.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = ln.Close()
		return errors.New("wire: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		if s.maxConns > 0 && s.active.Load() >= int64(s.maxConns) {
			// Over the connection cap: answer with the same error a full
			// MySQL server gives and drop the transport.
			go refuseConn(nc)
			continue
		}
		s.startConn(nc)
	}
}

// ListenAndServe listens on addr (e.g. ":3306") and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// ServeConn serves one already-established connection synchronously; it
// returns when the client disconnects. Tests drive the protocol through
// net.Pipe with it.
func (s *Server) ServeConn(nc net.Conn) {
	c := &conn{srv: s, ctx: s.baseCtx, id: s.connSeq.Add(1)}
	s.active.Add(1)
	defer s.active.Add(-1)
	c.serve(nc)
}

func (s *Server) startConn(nc net.Conn) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.ServeConn(nc)
	}()
}

// refuseConn performs enough of the handshake to deliver ER_CON_COUNT_ERROR
// before dropping an over-cap connection.
func refuseConn(nc net.Conn) {
	defer func() { _ = nc.Close() }()
	pc := newPacketConn(nc)
	code := uint16(errConCount)
	payload := []byte{0xff, byte(code), byte(code >> 8), '#'}
	payload = append(payload, "08004"...)
	payload = append(payload, "Too many connections"...)
	_ = pc.writePacket(payload)
	_ = pc.flush()
}

// Close stops accepting, cancels in-flight query contexts, and waits for
// connection goroutines to finish.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	s.cancel()
	s.wg.Wait()
}

// Metrics returns a snapshot of the server's wire-level activity counters.
func (s *Server) Metrics() obs.WireMetrics { return s.metrics.Snapshot() }
