package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// rig owns everything a run leaves behind: the built binaries' location,
// one temp tree, and every child process. Close kills and removes all of
// it, and is reached on success, error, panic, SIGINT/SIGTERM and the
// per-workload timeout.
type rig struct {
	root string // repository root (holds go.mod)
	bin  string // directory of the built binaries
	tmp  string // this run's temp tree, relative when possible (socket paths are short)

	mu       sync.Mutex
	children []*child
	closed   bool
	stopSig  chan os.Signal
	timer    *time.Timer
}

// newRig prepares work (created if missing) for one run.
func newRig(root, work string, timeout time.Duration) (*rig, error) {
	if err := os.MkdirAll(filepath.Join(work, "tmp"), 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(filepath.Join(work, "tmp"), "run-")
	if err != nil {
		return nil, err
	}
	r := &rig{root: root, bin: filepath.Join(work, "bin"), tmp: tmp, stopSig: make(chan os.Signal, 1)}
	signal.Notify(r.stopSig, os.Interrupt, syscall.SIGTERM)
	go func() {
		if sig, ok := <-r.stopSig; ok {
			fmt.Fprintf(os.Stderr, "bench: %v: killing children\n", sig)
			r.Close()
			os.Exit(130)
		}
	}()
	r.timer = time.AfterFunc(timeout, func() {
		fmt.Fprintf(os.Stderr, "bench: workload exceeded its %v timeout: killing children\n", timeout)
		r.Close()
		os.Exit(124)
	})
	return r, nil
}

// Close kills every child still running, waits for each, and removes the
// temp tree. It is safe to call more than once and from any goroutine.
func (r *rig) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	children := r.children
	r.mu.Unlock()
	r.timer.Stop()
	signal.Stop(r.stopSig)
	close(r.stopSig)
	for _, c := range children {
		c.kill()
	}
	os.RemoveAll(r.tmp)
}

// build compiles the shipped binaries the workloads drive.
func (r *rig) build(names ...string) error {
	abs, err := filepath.Abs(r.bin)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(abs, 0o755); err != nil {
		return err
	}
	args := []string{"build", "-o", abs + string(filepath.Separator)}
	for _, n := range names {
		args = append(args, "./cmd/"+n)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = r.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %v\n%s", err, out)
	}
	return nil
}

// usage is what a finished child cost.
type usage struct {
	Wall   time.Duration
	CPU    time.Duration
	RSSMiB float64
}

// hwmKiB reads a live process's peak resident set (VmHWM). wait4's
// ru_maxrss cannot stand in for it: a child's high-water mark starts at
// its parent's RSS at fork time, so a harness holding a feed and a
// reference engine would report its own size for a smaller daemon.
func hwmKiB(pid int) uint64 {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb
		}
	}
	return 0
}

// runBatch runs one batch command to completion and returns its stdout
// hash, stderr text and cost.
func (r *rig) runBatch(name string, args ...string) (sha string, stdout []byte, stderr string, u usage, err error) {
	cmd := exec.Command(filepath.Join(r.bin, name), args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var errBuf strings.Builder
	cmd.Stderr = &errBuf
	out, err := cmd.StdoutPipe()
	if err != nil {
		return "", nil, "", u, err
	}
	c := &child{name: name, cmd: cmd, started: time.Now()}
	if err := cmd.Start(); err != nil {
		return "", nil, "", u, err
	}
	r.adopt(c)
	// A batch child exits on its own, so its peak RSS is sampled while it
	// runs; VmHWM only rises, and the last sample is at most 50 ms stale.
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			if v := hwmKiB(cmd.Process.Pid); v > 0 {
				c.hwm.Store(v)
			} else {
				return
			}
			time.Sleep(50 * time.Millisecond)
		}
	}()
	stdout, readErr := io.ReadAll(out)
	<-sampled
	err = c.wait()
	u = c.used
	if err == nil {
		err = readErr
	}
	if err != nil {
		return "", nil, errBuf.String(), u, fmt.Errorf("%s %s: %v\n%s", name, strings.Join(args, " "), err, errBuf.String())
	}
	return hexSHA(stdout), stdout, errBuf.String(), u, nil
}

// hexSHA is the hex sha256 the correctness checks compare outputs by.
func hexSHA(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

func (r *rig) adopt(c *child) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		c.kill()
		return
	}
	r.children = append(r.children, c)
}

// child is one spawned process.
type child struct {
	name string
	cmd  *exec.Cmd
	dir  string
	// http is the bound HTTP base URL and feed the feed socket path, both
	// learned from the daemon's "listening on" log lines.
	http string
	feed string

	waitOnce sync.Once
	waitErr  error
	used     usage
	hwm      atomic.Uint64 // peak RSS in KiB, read from /proc while the child lived
	started  time.Time
	logMu    sync.Mutex
	log      []string
}

var (
	httpLine = regexp.MustCompile(`listening on http://(\S+)`)
	feedLine = regexp.MustCompile(`live feed listening on unix://(\S+)`)
)

// daemonSpec describes one wormwatchd to start.
type daemonSpec struct {
	name string   // directory name under the run's temp tree
	args []string // flags besides -addr, -feed-listen, -wal
	feed bool     // give it a unix feed socket and a WAL
}

// startDaemon launches wormwatchd in its own directory with its own
// ephemeral listener (and, for shards, its own socket and WAL) and
// returns once /healthz answers. Restarting a spec reuses its directory,
// which is how recovery is exercised.
func (r *rig) startDaemon(spec daemonSpec) (*child, error) {
	dir := filepath.Join(r.tmp, spec.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	args := []string{"-addr", "127.0.0.1:0"}
	sock := filepath.Join(dir, "feed.sock")
	if spec.feed {
		// A socket someone is still listening on belongs to a daemon this
		// run did not start: measuring it would measure the wrong program.
		if conn, err := net.DialTimeout("unix", sock, time.Second); err == nil {
			conn.Close()
			return nil, fmt.Errorf("%s: a process this run did not spawn is listening on %s; refusing to start", spec.name, sock)
		}
		args = append(args, "-feed-listen", "./feed.sock", "-wal", "./wal")
	}
	args = append(args, spec.args...)
	bin, err := filepath.Abs(filepath.Join(r.bin, "wormwatchd"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	c := &child{name: spec.name, cmd: cmd, dir: dir, started: time.Now()}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	r.adopt(c)
	ready := make(chan error, 1)
	go func() {
		needFeed := spec.feed
		sc := bufio.NewScanner(stderr)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			c.logMu.Lock()
			c.log = append(c.log, line)
			c.logMu.Unlock()
			if m := httpLine.FindStringSubmatch(line); m != nil && c.http == "" {
				c.http = "http://" + m[1]
			}
			if m := feedLine.FindStringSubmatch(line); m != nil {
				needFeed = false
			}
			if !announced && c.http != "" && !needFeed {
				announced = true
				ready <- nil
			}
		}
		if !announced {
			ready <- fmt.Errorf("%s exited before it was listening:\n%s", spec.name, c.logs())
		}
	}()
	select {
	case err := <-ready:
		if err != nil {
			c.kill()
			return nil, err
		}
	case <-time.After(60 * time.Second):
		c.kill()
		return nil, fmt.Errorf("%s: no listening line within 60s:\n%s", spec.name, c.logs())
	}
	if spec.feed {
		c.feed = sock
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := getJSON[map[string]any](c.http + "/healthz"); err == nil {
			return c, nil
		} else if time.Now().After(deadline) {
			c.kill()
			return nil, fmt.Errorf("%s: /healthz: %v", spec.name, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (c *child) logs() string {
	c.logMu.Lock()
	defer c.logMu.Unlock()
	return strings.Join(c.log, "\n")
}

// wait reaps the process once and records what it used.
func (c *child) wait() error {
	c.waitOnce.Do(func() {
		c.waitErr = c.cmd.Wait()
		if ps := c.cmd.ProcessState; ps != nil {
			c.used = usage{Wall: time.Since(c.started), CPU: ps.UserTime() + ps.SystemTime(), RSSMiB: float64(c.hwm.Load()) / 1024}
		}
	})
	return c.waitErr
}

// kill sends SIGKILL and waits for the process to end; on a child that
// already ended it only returns what it used.
func (c *child) kill() usage {
	if c.cmd.Process != nil {
		if v := hwmKiB(c.cmd.Process.Pid); v > 0 {
			c.hwm.Store(v)
		}
		c.cmd.Process.Kill()
	}
	c.wait()
	return c.used
}

// httpClient is shared by every harness request: keep-alive, and a
// timeout long enough for a cold merged /alerts.
var httpClient = &http.Client{Timeout: 60 * time.Second}

// get returns the status and body of one GET.
func get(url string) (int, []byte, error) {
	resp, err := httpClient.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// getJSON decodes a 200 response into T.
func getJSON[T any](url string) (T, error) {
	var v T
	status, body, err := get(url)
	if err != nil {
		return v, err
	}
	if status != http.StatusOK {
		return v, fmt.Errorf("GET %s: status %d: %s", url, status, strings.TrimSpace(string(body)))
	}
	return v, json.Unmarshal(body, &v)
}

// scrape reads a Prometheus text page into series -> value.
func scrape(base string) (map[string]float64, error) {
	status, body, err := get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: status %d", base, status)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// sumPrefix adds every series whose name starts with prefix.
func sumPrefix(m map[string]float64, prefix string) float64 {
	t := 0.0
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			t += v
		}
	}
	return t
}

// waitFor polls cond every 2 ms until it holds or the timeout passes.
func waitFor(ctx context.Context, timeout time.Duration, what string, cond func() (bool, error)) error {
	deadline := time.Now().Add(timeout)
	for {
		ok, err := cond()
		if err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: not within %v", what, timeout)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// fsType names the filesystem holding path (the WAL's fsync cost
// depends on it).
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
