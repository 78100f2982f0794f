package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one chassis-serve process started by the benchmark.
type server struct {
	cmd  *exec.Cmd
	base string // http://host:port
	done chan struct{}
	mu   sync.Mutex
	logs []string // the last stderr lines, for error reports
}

// startServer launches chassis-serve with args on a free port and returns
// once /readyz answers 200, with the time that took from process start.
func startServer(bin string, args []string, client *http.Client) (*server, float64, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	dieWithParent(cmd)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			if len(s.logs) == 20 {
				s.logs = s.logs[1:]
			}
			s.logs = append(s.logs, line)
			s.mu.Unlock()
			if i := strings.Index(line, "serving on http://"); i >= 0 {
				addr := strings.Fields(line[i+len("serving on http://"):])[0]
				select {
				case addrCh <- addr:
				default:
				}
			}
		}
		io.Copy(io.Discard, stderr)
	}()
	deadline := time.After(60 * time.Second)
	select {
	case addr := <-addrCh:
		s.base = "http://" + addr
	case <-s.done:
		s.wait()
		return nil, 0, fmt.Errorf("chassis-serve exited during start-up: %s", s.tail())
	case <-deadline:
		s.kill()
		return nil, 0, errors.New("chassis-serve did not report its address within 60s")
	}
	for {
		resp, err := client.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start).Seconds(), nil
			}
		}
		select {
		case <-s.done:
			s.wait()
			return nil, 0, fmt.Errorf("chassis-serve exited before ready: %s", s.tail())
		case <-deadline:
			s.kill()
			return nil, 0, errors.New("chassis-serve not ready within 60s")
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func (s *server) tail() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.logs, " | ")
}

// wait reaps the process after its stderr reader has finished.
func (s *server) wait() error {
	<-s.done
	return s.cmd.Wait()
}

// stop drains the server with SIGTERM and waits for it to exit.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	return s.wait()
}

// kill ends the server with SIGKILL, as a crash would, and waits for it.
func (s *server) kill() {
	s.cmd.Process.Kill()
	s.wait()
}

// post sends one JSON body and returns the status and response body.
func post(client *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// series is one /metrics scrape: series name → value.
type series map[string]float64

// need returns the named series. A series the server does not export is an
// error, so a missing or renamed instrument never reads as a zero.
func (s series) need(name string) (float64, error) {
	v, ok := s[name]
	if !ok {
		return 0, fmt.Errorf("the server's /metrics has no %s series", name)
	}
	return v, nil
}

// sum adds up scrapes of several server processes, series by series. Only
// counters and timer totals add up this way.
func sum(scrapes []series) series {
	out := series{}
	for _, m := range scrapes {
		for k, v := range m {
			out[k] += v
		}
	}
	return out
}

// scrape reads the server's /metrics exposition.
func scrape(client *http.Client, base string) (series, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics answered %d", resp.StatusCode)
	}
	out := series{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		out[f[0]] = v
	}
	return out, sc.Err()
}
