//go:build linux

//edmlint:allow walltime the benchmark measures the live stack in real time by definition

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/telemetry"
)

// cpuSet is a CPU affinity mask (up to 1024 CPUs, the kernel's cpu_set_t).
type cpuSet [16]uint64

func cpuRange(lo, hi int) (s cpuSet) {
	for c := lo; c < hi && c < 64*len(s); c++ {
		s[c/64] |= 1 << (c % 64)
	}
	return s
}

func (s cpuSet) empty() bool { return s == cpuSet{} }

func (s cpuSet) String() string {
	var cpus []string
	for c := 0; c < 64*len(s); c++ {
		if s[c/64]&(1<<(c%64)) != 0 {
			cpus = append(cpus, strconv.Itoa(c))
		}
	}
	if len(cpus) == 0 {
		return "unpinned"
	}
	return strings.Join(cpus, ",")
}

func setAffinity(s *cpuSet) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(*s), uintptr(unsafe.Pointer(s)))
	if e != 0 {
		return e
	}
	return nil
}

func getAffinity() (s cpuSet, err error) {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
	if e != 0 {
		return s, e
	}
	return s, nil
}

// startPinned starts cmd with its affinity set to cpus: the calling thread
// takes the mask for the duration of the fork, the child inherits it (and
// sizes GOMAXPROCS from it), and the thread's own mask is restored. An
// empty set, or a kernel that refuses, starts the child unpinned; the
// returned set is what is actually in effect.
func startPinned(cmd *exec.Cmd, cpus cpuSet) (cpuSet, error) {
	if cpus.empty() {
		return cpus, cmd.Start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	old, err := getAffinity()
	if err == nil {
		err = setAffinity(&cpus)
	}
	if err != nil {
		return cpuSet{}, cmd.Start()
	}
	startErr := cmd.Start()
	if err := setAffinity(&old); err != nil {
		// The harness thread would stay confined; say so rather than skew
		// every later child silently.
		fmt.Fprintf(os.Stderr, "benchmark: restoring affinity: %v\n", err)
	}
	return cpus, startErr
}

// pinPlan splits the machine: servers on the first half of the CPUs, the
// generator on the rest. With one CPU nothing is pinned.
func pinPlan() (server, generator cpuSet) {
	n := runtime.NumCPU()
	if n < 2 {
		return cpuSet{}, cpuSet{}
	}
	return cpuRange(0, n/2), cpuRange(n/2, n)
}

// moduleRoot walks up from the working directory to the directory holding
// go.mod: where edmd is built from.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod above the working directory: run from inside the repository")
		}
		dir = parent
	}
}

// buildEdmd compiles cmd/edmd from the tree into dir and returns the binary
// path and how long the build took.
func buildEdmd(dir string) (string, float64, error) {
	root, err := moduleRoot()
	if err != nil {
		return "", 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	bin, err := filepath.Abs(filepath.Join(dir, "edmd"))
	if err != nil {
		return "", 0, err
	}
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/edmd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/edmd: %v\n%s", err, out)
	}
	return bin, time.Since(t0).Seconds(), nil
}

// edmdProc is one running edmd child.
type edmdProc struct {
	cmd     *exec.Cmd
	addr    string // UDP listen address
	admin   string // host:port of the -metrics endpoint ("" when off)
	pinned  cpuSet
	stopped chan struct{} // closed once the process has been reaped
}

// edmdLifetime caps how long an edmd child can outlive a harness that died
// without killing it.
const edmdLifetime = 5 * time.Minute

// edmdDupWindow is the daemon's -dup-window. Pinned to one CPU the daemon
// runs with GOMAXPROCS=1, and there the Go scheduler can leave a worker that
// already holds a request parked for tens of milliseconds while the read
// loop and the other worker hand packets to each other. The default window
// of 4096 IDs is 23 ms at udp-mixed64-w32's rate: a request resumed after
// that is no longer recognised as the duplicate of its own retransmission
// and executes again (the counter check caught fetch-adds applied twice),
// and its entry's buffer has been handed to another response by then, so
// what it sends fails the client's CRC. 65536 IDs cover a third of a second.
const edmdDupWindow = 65536

// edmdTuning is what the benchmark's edmd runs with beyond the defaults;
// the run header and results.json state it.
var edmdTuning = []string{"-dup-window", strconv.Itoa(edmdDupWindow)}

// startEdmd launches bin on an ephemeral port, in its own process group,
// pinned to cpus, and waits for its listen line. With metrics the daemon
// also serves /metrics.json (and therefore reads the clock per request).
func startEdmd(bin string, slab uint64, cpus cpuSet, metrics bool) (*edmdProc, error) {
	args := []string{"-listen", "127.0.0.1:0", "-slab", strconv.FormatUint(slab, 10), "-duration", edmdLifetime.String()}
	args = append(args, edmdTuning...)
	if metrics {
		args = append(args, "-metrics", "127.0.0.1:0")
	}
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	// Pdeathsig fires when the forking *thread* exits, so the goroutine that
	// starts the daemon keeps its thread until the daemon is reaped.
	p := &edmdProc{cmd: cmd, stopped: make(chan struct{})}
	started := make(chan error, 1)
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		pinned, err := startPinned(cmd, cpus)
		p.pinned = pinned
		started <- err
		if err != nil {
			close(p.stopped)
			return
		}
		cmd.Wait()
		close(p.stopped)
	}()
	if err := <-started; err != nil {
		return nil, fmt.Errorf("start edmd: %w", err)
	}
	lines := make(chan string, 4) // the two start-up lines plus slack; later output is discarded
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			default:
			}
		}
		close(lines)
	}()
	deadline := time.After(10 * time.Second)
	for p.addr == "" || (metrics && p.admin == "") {
		select {
		case line, ok := <-lines:
			if !ok {
				p.stop()
				return nil, errors.New("edmd exited before listening")
			}
			if i := strings.Index(line, "listening on "); i >= 0 {
				p.addr = strings.Fields(line[i+len("listening on "):])[0]
			}
			if i := strings.Index(line, "metrics on http://"); i >= 0 {
				p.admin = strings.TrimSuffix(line[i+len("metrics on http://"):], "/metrics")
			}
		case <-deadline:
			p.stop()
			return nil, errors.New("edmd did not report its address within 10s")
		}
	}
	return p, nil
}

// stop kills the daemon's process group and waits until it is reaped.
func (p *edmdProc) stop() {
	if p.cmd.Process != nil {
		syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
	}
	<-p.stopped
}

// scrape fetches the daemon's registry snapshot.
func (p *edmdProc) scrape() (telemetry.Snapshot, error) {
	var snap telemetry.Snapshot
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+p.admin+"/metrics.json", nil)
	if err != nil {
		return snap, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return snap, err
	}
	return snap, json.Unmarshal(body, &snap)
}

// procUsage is a process's cumulative CPU time and context switches,
// summed over its threads.
type procUsage struct {
	cpuNS uint64
	ctxsw uint64
}

// readProcUsage reads /proc/<pid>/task/*: schedstat's first field is the
// thread's on-CPU nanoseconds; status carries its context-switch counts.
// Kernels without schedstats fall back to the 10 ms ticks of /proc/<pid>/stat.
func readProcUsage(pid int) (procUsage, error) {
	var u procUsage
	base := "/proc/" + strconv.Itoa(pid)
	tasks, err := os.ReadDir(base + "/task")
	if err != nil {
		return u, err
	}
	precise := true
	for _, t := range tasks {
		dir := base + "/task/" + t.Name()
		if b, err := os.ReadFile(dir + "/schedstat"); err == nil {
			if f := strings.Fields(string(b)); len(f) > 0 {
				ns, _ := strconv.ParseUint(f[0], 10, 64)
				u.cpuNS += ns
			}
		} else {
			precise = false
		}
		if b, err := os.ReadFile(dir + "/status"); err == nil {
			u.ctxsw += statusField(b, "voluntary_ctxt_switches:") + statusField(b, "nonvoluntary_ctxt_switches:")
		}
	}
	if !precise {
		b, err := os.ReadFile(base + "/stat")
		if err != nil {
			return u, err
		}
		// Fields after the parenthesised command name; utime and stime are
		// the 14th and 15th of the whole line.
		rest := string(b[bytes.LastIndexByte(b, ')')+1:])
		f := strings.Fields(rest)
		if len(f) < 13 {
			return u, fmt.Errorf("short %s/stat", base)
		}
		ut, _ := strconv.ParseUint(f[11], 10, 64)
		st, _ := strconv.ParseUint(f[12], 10, 64)
		u.cpuNS = (ut + st) * 10_000_000
	}
	return u, nil
}

// statusField returns the numeric value (kB for memory lines) after key in
// a /proc/<pid>/status image, 0 when absent.
func statusField(status []byte, key string) uint64 {
	i := bytes.Index(status, []byte(key))
	if i < 0 {
		return 0
	}
	f := strings.Fields(string(status[i+len(key):]))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseUint(f[0], 10, 64)
	return v
}

// peakRSSMB is a process's high-water resident set in MB (10^6 bytes).
func peakRSSMB(pid int) float64 {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	return float64(statusField(b, "VmHWM:")) * 1024 / 1e6
}

func kernelVersion() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// commitID names the tree being measured: the git commit when there is a
// repository (the gate's checkouts have none).
func commitID(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
