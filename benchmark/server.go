package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildServer compiles root's cmd/txgc-serve into dir.
func buildServer(root, dir string) (string, error) {
	bin := filepath.Join(dir, "txgc-serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/txgc-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build txgc-serve: %v\n%s", err, out)
	}
	return bin, nil
}

// server is one txgc-serve child process.
type server struct {
	cmd  *exec.Cmd
	addr string
	// waited is closed once the process has been reaped.
	waited chan struct{}
}

// serverArgs are the flags a workload starts the server with: defaults
// except what the workload is about, telemetry off.
func serverArgs(sp *spec, dataDir string) []string {
	args := []string{"-addr", "127.0.0.1:0",
		"-shards", strconv.Itoa(sp.Shards), "-policy", sp.Policy}
	if sp.RetentionWatermark > 0 {
		args = append(args, "-retention-watermark", strconv.Itoa(sp.RetentionWatermark))
	}
	if sp.Durable {
		args = append(args, "-data-dir", dataDir)
		if sp.FsyncBatch > 0 {
			args = append(args, "-fsync-batch", strconv.Itoa(sp.FsyncBatch))
		}
	}
	return args
}

// startServer spawns the server and waits for its "listening on" line.
func startServer(bin string, args []string) (*server, error) {
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, waited: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		// Drain stderr for the life of the process so it never blocks on a
		// full pipe; the first "listening on" line carries the address.
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), "listening on "); ok {
				select {
				case addrc <- strings.TrimSpace(a):
				default:
				}
			}
		}
		_ = cmd.Wait() // exit status is irrelevant: the server is stopped by signal
		close(s.waited)
	}()
	select {
	case s.addr = <-addrc:
		return s, nil
	case <-s.waited:
		return nil, fmt.Errorf("txgc-serve exited before listening")
	case <-time.After(20 * time.Second):
		s.kill()
		return nil, fmt.Errorf("txgc-serve did not listen within 20s")
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop ends the server gracefully and waits for it.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // already-exited is fine
	select {
	case <-s.waited:
	case <-time.After(10 * time.Second):
		s.kill()
	}
}

// kill is kill -9 plus wait.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // already-exited is fine
	<-s.waited
}

// procStatusKB reads one "Key:  N kB" field of /proc/<pid>/status.
func procStatusKB(pid int, key string) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if rest, ok := bytes.CutPrefix(line, []byte(key+":")); ok {
			f := bytes.Fields(rest)
			if len(f) > 0 {
				v, _ := strconv.ParseFloat(string(f[0]), 64)
				return v
			}
		}
	}
	return 0
}

// procWriteBytes reads write_bytes of /proc/<pid>/io: bytes the process
// caused to be sent to the storage layer.
func procWriteBytes(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if rest, ok := bytes.CutPrefix(line, []byte("write_bytes:")); ok {
			v, _ := strconv.ParseFloat(string(bytes.TrimSpace(rest)), 64)
			return v
		}
	}
	return 0
}

// procCPUSeconds is utime+stime of /proc/<pid>/stat, at the kernel's
// USER_HZ of 100.
func procCPUSeconds(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// The command name may hold spaces; fields are counted after its ')'.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0
	}
	f := bytes.Fields(data[i+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(string(f[11]), 64)
	st, _ := strconv.ParseFloat(string(f[12]), 64)
	return (ut + st) / 100
}
