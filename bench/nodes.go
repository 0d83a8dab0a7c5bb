package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"pdcedu/internal/csnet"
)

const (
	numNodes = 3
	// probeInterval is the nodes' SWIM probe period: short, so three
	// nodes learn of each other within a few hundred milliseconds and
	// member.join_converge_ms measures gossip rather than a long timer.
	probeInterval = 100 * time.Millisecond
)

// rig owns everything a run leaves on the machine: the scratch
// directory (node data-dirs, logs, the distnode binary) and the child
// processes. stop kills every child and is safe on any exit path.
type rig struct {
	dir   string // bench/.scratch/run-<pid>
	bin   string // the distnode binary, built once per process
	mu    sync.Mutex
	nodes []*node
}

// node is one distnode process and the addresses it was told to use.
type node struct {
	idx         int
	addr        string // KV + gossip listen address, also the member identity
	metricsAddr string
	dataDir     string
	logPath     string
	args        []string
	cmd         *exec.Cmd
	http        *http.Client
}

// newRig creates the run's scratch directory under bench/.scratch and
// arranges for SIGINT/SIGTERM to kill the children before exiting.
func newRig() (*rig, error) {
	if _, err := os.Stat(filepath.Join("cmd", "distnode")); err != nil {
		return nil, fmt.Errorf("bench must run from the repository root (go run ./bench): %w", err)
	}
	dir, err := filepath.Abs(filepath.Join("bench", ".scratch", "run-"+strconv.Itoa(os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r := &rig{dir: dir, bin: filepath.Join(dir, "distnode")}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "bench: %v: killing nodes\n", s)
		r.stop()
		os.Exit(130)
	}()
	return r, nil
}

// build compiles cmd/distnode into the scratch directory and reports
// how long that took (layer metric bench.build_s; never part of
// setup_s).
func (r *rig) build() (time.Duration, error) {
	start := time.Now()
	out, err := exec.Command("go", "build", "-o", r.bin, "./cmd/distnode").CombinedOutput()
	if err != nil {
		return 0, fmt.Errorf("go build ./cmd/distnode: %v\n%s", err, out)
	}
	return time.Since(start), nil
}

// freeAddr asks the kernel for an unused loopback port and releases
// it. The node binds it a moment later; a collision with a concurrent
// run in that window fails that run's start-up loudly, never silently.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// spawn starts a fresh 3-node cluster under sub (a directory name
// inside the scratch dir): node 0 first, the others joining it.
// extra is appended to every node's flags.
func (r *rig) spawn(sub string, extra ...string) error {
	nodes := make([]*node, numNodes)
	for i := range nodes {
		addr, err := freeAddr()
		if err != nil {
			return err
		}
		maddr, err := freeAddr()
		if err != nil {
			return err
		}
		n := &node{
			idx:         i,
			addr:        addr,
			metricsAddr: maddr,
			dataDir:     filepath.Join(r.dir, sub, fmt.Sprintf("node%d", i)),
			logPath:     filepath.Join(r.dir, sub, fmt.Sprintf("node%d.log", i)),
			http:        &http.Client{Timeout: 5 * time.Second},
		}
		if err := os.MkdirAll(n.dataDir, 0o755); err != nil {
			return err
		}
		// -fsync interval at the default 100ms flush: the policy is
		// part of what is measured, so it is spelled out, and it is the
		// same on every run.
		n.args = append([]string{
			"-addr", addr, "-metrics-addr", maddr, "-data-dir", n.dataDir,
			"-fsync", "interval", "-fsync-interval", "100ms",
			"-probe", probeInterval.String(), "-quiet",
		}, extra...)
		if i > 0 {
			n.args = append(n.args, "-join", nodes[0].addr)
		}
		nodes[i] = n
	}
	r.mu.Lock()
	r.nodes = nodes
	r.mu.Unlock()
	// A joiner whose seed is not listening yet gives up on it, so the
	// seed must serve before the others start; they then come up together.
	for i, n := range nodes {
		if err := r.start(n); err != nil {
			return err
		}
		if i == 0 {
			if err := n.waitServing(20 * time.Second); err != nil {
				return err
			}
		}
	}
	for _, n := range nodes[1:] {
		if err := n.waitServing(20 * time.Second); err != nil {
			return err
		}
	}
	return nil
}

// start execs node n (first start or restart on the same data-dir and
// address). Stderr is appended to the node's log file.
func (r *rig) start(n *node) error {
	logf, err := os.OpenFile(n.logPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(r.bin, n.args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = logf
	// If the generator dies without running stop — SIGKILL, a panic in
	// another goroutine — the kernel still takes the nodes down.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start node %d: %w", n.idx, err)
	}
	n.cmd = cmd
	return nil
}

// kill SIGKILLs node n and reaps it: a crash, not a shutdown — nothing
// is flushed that the fsync policy had not already flushed.
func (r *rig) kill(n *node) {
	r.mu.Lock()
	cmd := n.cmd
	n.cmd = nil
	r.mu.Unlock()
	if cmd == nil {
		return
	}
	_ = cmd.Process.Kill() // already-exited is the only failure, and is fine
	_ = cmd.Wait()         // the kill is the expected exit status
}

// stop kills every node still running.
func (r *rig) stop() {
	r.mu.Lock()
	nodes := r.nodes
	r.mu.Unlock()
	for _, n := range nodes {
		r.kill(n)
	}
}

// cleanup ends the run: nodes are killed; on success the scratch
// directory is removed, on failure it is kept and the tail of each
// node's stderr is printed so the cause is in the benchmark's output.
func (r *rig) cleanup(failed bool) {
	r.stop()
	if !failed {
		_ = os.RemoveAll(r.dir) // best effort: a leftover directory is ignored by git
		return
	}
	fmt.Fprintf(os.Stderr, "bench: failed; scratch kept at %s\n", r.dir)
	logs, _ := filepath.Glob(filepath.Join(r.dir, "*", "node*.log"))
	for _, p := range logs {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
		if len(lines) > 15 {
			lines = lines[len(lines)-15:]
		}
		fmt.Fprintf(os.Stderr, "--- tail of %s\n%s\n", p, strings.Join(lines, "\n"))
	}
}

// poll calls ok every 2ms until it returns true or timeout passes.
func poll(timeout time.Duration, ok func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !ok() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

// waitServing blocks until node n answers /readyz with 200 and a
// csnet Ping: the definition of "recovered" that recover_s times.
func (n *node) waitServing(timeout time.Duration) error {
	ok := poll(timeout, func() bool {
		resp, err := n.http.Get("http://" + n.metricsAddr + "/readyz")
		if err != nil {
			return false
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return false
		}
		cl, err := csnet.Dial(n.addr, time.Second)
		if err != nil {
			return false
		}
		defer cl.Close()
		return cl.Ping() == nil
	})
	if !ok {
		return fmt.Errorf("node %d (%s) not serving after %s", n.idx, n.addr, timeout)
	}
	return nil
}

// waitConverged blocks until every node has logged an "-> alive"
// membership transition for each of its two peers.
func (r *rig) waitConverged(timeout time.Duration) error {
	ok := poll(timeout, func() bool {
		for _, n := range r.nodes {
			b, err := os.ReadFile(n.logPath)
			if err != nil || bytes.Count(b, []byte("-> alive")) < numNodes-1 {
				return false
			}
		}
		return true
	})
	if !ok {
		return fmt.Errorf("membership did not converge within %s", timeout)
	}
	return nil
}

func (n *node) readProc(file string) (string, error) {
	if n.cmd == nil {
		return "", fmt.Errorf("node %d is not running", n.idx)
	}
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/%s", n.cmd.Process.Pid, file))
	return string(b), err
}

// cpu returns the node process's cumulative user and system CPU time.
func (n *node) cpu() (user, sys time.Duration, err error) {
	text, err := n.readProc("stat")
	if err != nil {
		return 0, 0, err
	}
	return parseProcStat(text)
}

func (n *node) writeBytes() (int64, error) {
	text, err := n.readProc("io")
	if err != nil {
		return 0, err
	}
	return parseWriteBytes(text)
}

func (n *node) vmHWM() (int64, error) {
	text, err := n.readProc("status")
	if err != nil {
		return 0, err
	}
	return parseVmHWM(text)
}

func (n *node) httpGet(path string) ([]byte, error) {
	resp, err := n.http.Get("http://" + n.metricsAddr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s on node %d: %s", path, n.idx, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// mallocs returns the node's cumulative heap-object allocation count
// from its /debug/vars memstats.
func (n *node) mallocs() (uint64, error) {
	doc, err := n.httpGet("/debug/vars")
	if err != nil {
		return 0, err
	}
	return parseMallocs(doc)
}

// gauges returns the node's scalar metrics from its /metrics page.
// Per-node reads (not ClusterStats) because high-water gauges must be
// maxed across nodes, and a merged snapshot adds them.
func (n *node) gauges() (map[string]int64, error) {
	page, err := n.httpGet("/metrics")
	if err != nil {
		return nil, err
	}
	return parseMetricsPage(string(page)), nil
}

// parseMetricsPage reads the "name value" lines of a /metrics page;
// histogram lines (name count=… p50=…) are skipped.
func parseMetricsPage(page string) map[string]int64 {
	out := make(map[string]int64)
	for _, line := range strings.Split(page, "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseInt(val, 10, 64); err == nil {
			out[name] = v
		}
	}
	return out
}
