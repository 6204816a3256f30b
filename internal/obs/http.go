// http.go exposes the registry over HTTP: /metrics serves the
// Prometheus text exposition, /debug/vars the standard expvar JSON
// (cmdline, memstats, plus the registry snapshot under "obs"). The
// endpoint is opt-in (-listen on the CLIs) and runs on its own mux, so
// it never collides with an application's DefaultServeMux. The same
// Server plumbing hosts any handler via ServeHandler (cmd/allocserve
// mounts its allocation API on it), with graceful shutdown and the
// background serve error surfaced instead of dropped.
package obs

import (
	"context"
	"errors"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// expvarReg is the registry /debug/vars reads through the "obs" var.
// Swappable so tests with private registries see their own metrics;
// published into expvar's process-global namespace exactly once.
var (
	expvarReg  atomic.Pointer[Registry]
	expvarOnce sync.Once
)

func publishExpvar(reg *Registry) {
	expvarReg.Store(reg)
	expvarOnce.Do(func() {
		expvar.Publish("obs", expvar.Func(func() any {
			return expvarReg.Load().Snapshot()
		}))
	})
}

// HandlerOpts tunes the observability mux.
type HandlerOpts struct {
	// Pprof mounts net/http/pprof under /debug/pprof/. Off by default:
	// profiling endpoints expose goroutine stacks and heap contents, so
	// daemons gate them behind an explicit flag.
	Pprof bool
}

// Handler returns the observability mux: /metrics (Prometheus text) and
// /debug/vars (expvar JSON including the registry snapshot).
func Handler(reg *Registry) http.Handler {
	return NewHandler(reg, HandlerOpts{})
}

// NewHandler is Handler with options (opt-in /debug/pprof/).
func NewHandler(reg *Registry, opts HandlerOpts) http.Handler {
	if reg == nil {
		reg = Default
	}
	publishExpvar(reg)
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.Snapshot().WritePrometheus(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	if opts.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// Server is a running HTTP endpoint with graceful shutdown.
type Server struct {
	ln    net.Listener
	srv   *http.Server
	errCh chan error // background srv.Serve result, buffered

	mu   sync.Mutex
	done bool
	err  error // serve error observed at shutdown (http.ErrServerClosed filtered)
}

// Serve starts the observability endpoint on addr (":0" picks a free
// port) and returns immediately; requests are handled on a background
// goroutine.
func Serve(addr string, reg *Registry) (*Server, error) {
	return ServeHandler(addr, Handler(reg))
}

// Connection bounds of every server ServeHandler starts; variables so
// tests can shorten them. A client stalling inside its headers is cut
// off after readHeaderTimeout. An idle keep-alive connection is closed
// after idleTimeout, long past any gap between a paced client's
// requests, because a request racing the close fails. There is no
// ReadTimeout: it stays armed while the handler runs and would cancel
// its context, so a handler bounds its own body read.
var (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// ServeHandler starts h on addr with the same lifecycle plumbing as
// Serve: a background accept loop whose error is surfaced by
// Shutdown/Err rather than silently discarded.
func ServeHandler(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	s := &Server{ln: ln, srv: srv, errCh: make(chan error, 1)}
	go func() {
		s.errCh <- srv.Serve(ln)
	}()
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string {
	if s == nil || s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown stops accepting new connections and waits for in-flight
// requests to finish, up to ctx's deadline; past the deadline remaining
// connections are closed hard. It returns the background serve error if
// the accept loop failed (http.ErrServerClosed — the normal shutdown
// result — is filtered out), otherwise any shutdown error. Safe to call
// more than once; later calls return the first outcome.
func (s *Server) Shutdown(ctx context.Context) error {
	if s == nil || s.srv == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return s.err
	}
	s.done = true
	shutErr := s.srv.Shutdown(ctx)
	if shutErr != nil {
		// Deadline expired with requests still in flight: close them.
		s.srv.Close()
	}
	// The accept loop has exited either way; collect its error.
	serveErr := <-s.errCh
	if errors.Is(serveErr, http.ErrServerClosed) {
		serveErr = nil
	}
	if serveErr != nil {
		s.err = serveErr
	} else {
		s.err = shutErr
	}
	return s.err
}

// Err reports, without blocking, whether the background accept loop has
// failed. Before shutdown it polls the serve goroutine; afterwards it
// returns the error Shutdown surfaced.
func (s *Server) Err() error {
	if s == nil || s.srv == nil {
		return nil
	}
	s.mu.Lock()
	if s.done {
		defer s.mu.Unlock()
		return s.err
	}
	s.mu.Unlock()
	select {
	case err := <-s.errCh:
		// Keep it observable for Shutdown, which receives from the channel.
		s.errCh <- err
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	default:
		return nil
	}
}

// Close stops the endpoint gracefully with a 5-second drain deadline,
// then hard-closes whatever is left.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return s.Shutdown(ctx)
}
