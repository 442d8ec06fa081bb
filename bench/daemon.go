package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// pollEvery is how often readiness and drain completion are checked:
// fine enough that no reported time is a multiple of a tick.
const pollEvery = 2 * time.Millisecond

// daemon is one live neogeod child.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:<port>
	dir     string // holds q.wal and data/
	errPath string // the child's stderr
	started time.Time
	done    chan struct{} // closed once the child has been waited for
	waitErr error         // cmd.Wait's result, valid after done
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// spawn starts neogeod on dir with the benchmark's fixed configuration.
// The child is registered with the harness first, so it is reaped on
// every exit path.
func (h *harness) spawn(dir string, extra ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	args := append([]string{
		"-addr", "127.0.0.1:" + strconv.Itoa(port),
		"-names", "20000", "-seed", "2011", "-shards", "2", "-workers", "2",
		"-drain-interval", "20ms", "-checkpoint-interval", "0",
		"-trace-recorder", "0", "-log-level", "error",
		"-wal", filepath.Join(dir, "q.wal"), "-data-dir", filepath.Join(dir, "data"),
	}, extra...)
	d := &daemon{
		base:    "http://127.0.0.1:" + strconv.Itoa(port),
		dir:     dir,
		errPath: filepath.Join(h.scratch, fmt.Sprintf("stderr-%d.log", port)),
		done:    make(chan struct{}),
	}
	errFile, err := os.Create(d.errPath)
	if err != nil {
		return nil, err
	}
	defer errFile.Close() // the child holds its own descriptor
	d.cmd = exec.Command(h.neogeod, args...)
	d.cmd.Stderr = errFile
	d.started = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting neogeod: %w", err)
	}
	h.daemons = append(h.daemons, d)
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.done)
	}()
	return d, nil
}

// waitHealthy polls /healthz until it answers 200.
func (d *daemon) waitHealthy(ctx context.Context, c *http.Client) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := c.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained only to reuse the connection
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.done:
			return fmt.Errorf("neogeod exited before it was healthy: %w (stderr: %q)", d.waitErr, d.stderrText())
		case <-ctx.Done():
			return fmt.Errorf("waiting for /healthz: %w (stderr: %q)", ctx.Err(), d.stderrText())
		case <-time.After(pollEvery):
		}
	}
}

// stop signals the child and waits until it has ended. SIGTERM makes
// neogeod drain, flush and checkpoint, and must end in exit code 0;
// SIGKILL is the crash.
func (d *daemon) stop(sig syscall.Signal) error {
	select {
	case <-d.done:
		return nil
	default:
	}
	if err := d.cmd.Process.Signal(sig); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-d.done:
		if sig == syscall.SIGTERM && d.waitErr != nil {
			return fmt.Errorf("neogeod did not stop cleanly: %w", d.waitErr)
		}
		return nil
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill() // already failing; the error below is what is reported
		<-d.done
		return fmt.Errorf("neogeod ignored %v for 20s", sig)
	}
}

func (d *daemon) stderrText() string {
	b, _ := os.ReadFile(d.errPath) // unreadable reads as empty; quiet() is only a check
	return strings.TrimSpace(string(b))
}

// quiet fails when the daemon logged anything: at -log-level error every
// line is a fault.
func (d *daemon) quiet() error {
	if s := d.stderrText(); s != "" {
		return fmt.Errorf("neogeod stderr not empty: %q", s)
	}
	return nil
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it
// is 100 on every Linux port Go runs on.
const clockTick = 100

// cpuSeconds is the child's user+system CPU time so far.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the ")".
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc stat line %q", b)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) / clockTick, nil
}

// peakRSSMB is the child's VmHWM.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// staleDaemon finds a neogeod left over from an earlier run; it would
// share the two cores with the one under test.
func staleDaemon() (int, bool) {
	ents, _ := os.ReadDir("/proc") // no /proc, nothing to find
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		cmdline, err := os.ReadFile(filepath.Join("/proc", e.Name(), "cmdline"))
		if err != nil {
			continue
		}
		argv0, _, _ := bytes.Cut(cmdline, []byte{0})
		if filepath.Base(string(argv0)) == "neogeod" {
			return pid, true
		}
	}
	return 0, false
}

// scratchRoot picks where WALs and data dirs live. tmpfs keeps the
// WAL/ledger/checkpoint code on the path and the shared disk's fsync
// latency off it; without /dev/shm the checkout's own build dir serves.
func scratchRoot(buildDir string) (dir, kind string, err error) {
	if dir, err = os.MkdirTemp("/dev/shm", "neogeo-bench-"); err == nil {
		return dir, "tmpfs:/dev/shm", nil
	}
	if err = os.MkdirAll(buildDir, 0o755); err != nil {
		return "", "", err
	}
	dir, err = os.MkdirTemp(buildDir, "scratch-")
	return dir, "disk:" + buildDir, err
}

// copyTree copies a directory of regular files.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(to, b, 0o644)
	})
}
