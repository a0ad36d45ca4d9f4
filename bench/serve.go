package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/jobs"
	"repro/internal/monitor"
	"repro/internal/registry"
	"repro/internal/server"
)

// Headers the load generator stamps on every request: a request ID that
// joins server spans to client timings, and the request's class.
const (
	reqHeader   = "X-Bench-Request"
	classHeader = "X-Bench-Class"
)

// tracePath toggles span recording in the child, and usagePath reports
// the child's resource use; both are answered by the benchmark's own
// handler wrapper and never reach the server.
const (
	tracePath = "/bench/trace"
	usagePath = "/bench/usage"
)

// usage is what the child process has consumed since it started: CPU
// time, user and system, and bytes allocated on the heap. CPU time is
// the benchmark's cost measure because it holds still while the shared
// host takes the vCPUs away: time stolen by the host or spent waiting
// for a core counts in wall-clock latency but not here.
type usage struct {
	CPUNs      int64  `json:"cpu_ns"`
	AllocBytes uint64 `json:"alloc_bytes"`
}

func readUsage() (usage, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{CPUNs: ru.Utime.Nano() + ru.Stime.Nano(), AllocBytes: ms.TotalAlloc}, nil
}

// span is one timed interval in the child: a handler, or the analysis a
// handler (or a job worker) ran. Parent is the ID of the enclosing span,
// 0 for roots. Req is the bench request ID, empty for work no request
// carried (async job runs).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// spanRef rides the request context so the analysis span finds its
// parent handler span.
type spanRef struct {
	id  int64
	req string
}

type spanKey struct{}

// tracer records spans in memory while switched on; they are written out
// once, when the child exits.
type tracer struct {
	on     atomic.Bool
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// wrap times every request as a handler span named after the client's
// request class, and puts the span on the request context.
func (t *tracer) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == tracePath {
			t.on.Store(r.URL.Query().Get("on") == "1")
			w.WriteHeader(http.StatusNoContent)
			return
		}
		if r.URL.Path == usagePath {
			u, err := readUsage()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(u) // a failed write shows up as a client error
			return
		}
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		ref := spanRef{id: t.nextID.Add(1), req: r.Header.Get(reqHeader)}
		start := time.Now()
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, ref)))
		t.add(span{ID: ref.id, Name: "server." + r.Header.Get(classHeader), Req: ref.req,
			Start: start.UnixNano(), End: time.Now().UnixNano()})
	})
}

// analyze is the engine's analysis function: jobs.RunAnalysis, timed as a
// jobs.analyze span under the handler that asked for it.
func (t *tracer) analyze(ctx context.Context, d *dataset.Dataset, spec jobs.Spec, tr *jobs.Tracker) (*core.Result, error) {
	if !t.on.Load() {
		return jobs.RunAnalysis(ctx, d, spec, tr)
	}
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	start := time.Now()
	res, err := jobs.RunAnalysis(ctx, d, spec, tr)
	t.add(span{ID: t.nextID.Add(1), Parent: ref.id, Name: "jobs.analyze", Req: ref.req,
		Start: start.UnixNano(), End: time.Now().UnixNano()})
	return res, err
}

// serveReport is the child's last line of output.
type serveReport struct {
	HeapBytes uint64 `json:"heap_bytes"`
	Spans     []span `json:"spans"`
}

// serveMain runs the server under test: the real stack — server.New over
// a registry, a jobs.Engine and a monitor.Manager, each with its default
// configuration — on a loopback listener. Only the registry budget may
// differ from the default. It prints "addr <host:port>", serves until
// its standard input closes, then prints a serveReport and returns.
func serveMain(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	budget := fs.Int64("registry-budget", server.DefaultDatasetCacheBytes, "dataset registry budget in bytes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	t := &tracer{}
	reg := registry.New(*budget)
	engine, err := jobs.New(jobs.Config{Registry: reg, Analyze: t.analyze})
	if err != nil {
		return err
	}
	monitors := monitor.NewManager(monitor.Config{Store: engine.Store()})
	api, err := server.New(server.Options{Registry: reg, Engine: engine, Monitors: monitors})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: t.wrap(api.Handler()), ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Printf("addr %s\n", ln.Addr())

	// The parent closes our stdin when the run is over (or when it dies).
	if _, err := io.Copy(io.Discard, os.Stdin); err != nil {
		fmt.Fprintf(os.Stderr, "serve: reading stdin: %v\n", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	// Measure what the server retains with everything it holds still
	// reachable: registry, caches, job table, monitors.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(api)
	if err := api.Close(ctx); err != nil {
		return fmt.Errorf("engine shutdown: %w", err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return json.NewEncoder(os.Stdout).Encode(serveReport{HeapBytes: ms.HeapAlloc, Spans: t.spans})
}

// child is a running server process.
type child struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
	addr  string
}

// startChild re-executes this binary in serve mode and waits for its
// listening address.
func startChild(budget int64) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"serve"}
	if budget > 0 {
		args = append(args, "-registry-budget", fmt.Sprint(budget))
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting server: %w", err)
	}
	c := &child{cmd: cmd, stdin: stdin, out: bufio.NewReaderSize(stdout, 1<<20)}
	line, err := c.out.ReadString('\n')
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "addr ")
	if err != nil || !ok {
		c.kill()
		return nil, fmt.Errorf("server did not report its address (read %q: %v)", line, err)
	}
	c.addr = addr
	return c, nil
}

// stop closes the child's stdin, reads its report and waits for it to
// exit, killing it if it has not exited within a minute.
func (c *child) stop() (serveReport, error) {
	var rep serveReport
	if err := c.stdin.Close(); err != nil {
		c.kill()
		return rep, err
	}
	type read struct {
		line []byte
		err  error
	}
	got := make(chan read, 1)
	go func() {
		line, err := c.out.ReadBytes('\n')
		got <- read{line, err}
	}()
	select {
	case r := <-got:
		if r.err != nil {
			c.kill()
			return rep, fmt.Errorf("reading server report: %w", r.err)
		}
		if err := json.Unmarshal(r.line, &rep); err != nil {
			c.kill()
			return rep, fmt.Errorf("decoding server report: %w", err)
		}
	case <-time.After(time.Minute):
		c.kill()
		return rep, errors.New("server did not shut down within a minute")
	}
	if err := c.cmd.Wait(); err != nil {
		return rep, fmt.Errorf("server exited: %w", err)
	}
	return rep, nil
}

// kill ends the child without a report and waits for it.
func (c *child) kill() {
	_ = c.cmd.Process.Kill() // it may have exited already
	_ = c.cmd.Wait()         // the exit status of a killed child says nothing
}
