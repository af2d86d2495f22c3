package main

// submit and status: the thin client side of the letdmad job service
// (cmd/letdmad). submit builds a serve.JobSpec from the familiar letdma
// flags and POSTs it; status queries one job by key, or lists all jobs.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"letdma/internal/serve"
)

// defaultDaemonAddr mirrors cmd/letdmad's -addr default.
const defaultDaemonAddr = "127.0.0.1:8355"

func cmdSubmit(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	addr := fs.String("addr", defaultDaemonAddr, "letdmad address")
	lite := fs.Bool("lite", false, "submit the reduced two-core case study")
	waters := fs.Bool("waters", false, "submit the full WATERS 2019 case study")
	file := fs.String("f", "", "submit the system from a JSON description")
	alpha := fs.Float64("alpha", 0.2, "sensitivity factor for data-acquisition deadlines (0 disables)")
	obj := fs.String("obj", "del", "objective: none | dmat | del")
	solver := fs.String("solver", "comb", "solver: comb | milp")
	slots := fs.Int("slots", 0, "MILP transfer slots (0 = |C(s0)|)")
	fast := fs.Bool("fast", false, "use the FastSearch MILP engine (the daemon certifies every result)")
	workers := fs.Int("workers", 0, "FastSearch branch-and-bound workers, read only with -fast (not part of the job key)")
	milpTimeout := fs.Duration("milp-timeout", 0, "MILP time limit per solve (0 = daemon default)")
	deadline := fs.Duration("deadline", 0, "per-job wall-clock deadline; on expiry the job completes with its anytime incumbent (0 = daemon default)")
	wait := fs.Bool("wait", false, "poll until the job is terminal and print the final status")
	_ = fs.Parse(args)

	spec := serve.JobSpec{
		Lite:          *lite,
		Waters:        *waters,
		Alpha:         alpha,
		Objective:     *obj,
		Solver:        *solver,
		Slots:         *slots,
		Fast:          *fast,
		Workers:       *workers,
		MILPTimeLimit: *milpTimeout,
		Deadline:      *deadline,
	}
	if *file != "" {
		raw, err := os.ReadFile(*file)
		if err != nil {
			return err
		}
		spec.System = raw
	}

	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	st, err := postJob(*addr, body)
	if err != nil {
		return err
	}
	if *wait {
		if st, err = pollJob(*addr, st.Key); err != nil {
			return err
		}
	}
	printStatus(st)
	return nil
}

func cmdStatus(args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	addr := fs.String("addr", defaultDaemonAddr, "letdmad address")
	_ = fs.Parse(args)
	if fs.NArg() == 0 {
		var list struct {
			Jobs []serve.JobStatus `json:"jobs"`
		}
		if err := getJSON(*addr, "/jobs", &list); err != nil {
			return err
		}
		if len(list.Jobs) == 0 {
			fmt.Println("no jobs")
			return nil
		}
		for _, st := range list.Jobs {
			fmt.Printf("%s  %-11s attempts=%d\n", st.Key, st.State, st.Attempts)
		}
		return nil
	}
	var st serve.JobStatus
	if err := getJSON(*addr, "/jobs/"+fs.Arg(0), &st); err != nil {
		return err
	}
	printStatus(st)
	return nil
}

func postJob(addr string, body []byte) (serve.JobStatus, error) {
	var st serve.JobStatus
	resp, err := http.Post("http://"+addr+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return st, fmt.Errorf("letdmad at %s unreachable: %w", addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return st, httpError(resp)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func pollJob(addr, key string) (serve.JobStatus, error) {
	var st serve.JobStatus
	for {
		if err := getJSON(addr, "/jobs/"+key, &st); err != nil {
			return st, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		select {
		case <-solveInterrupt:
			return st, fmt.Errorf("interrupted while waiting for job %s (state %s)", key, st.State)
		case <-time.After(200 * time.Millisecond):
		}
	}
}

func getJSON(addr, path string, v any) error {
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		return fmt.Errorf("letdmad at %s unreachable: %w", addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// httpError renders a non-2xx daemon response as an error.
func httpError(resp *http.Response) error {
	var body struct {
		Error string `json:"error"`
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if err == nil && json.Unmarshal(raw, &body) == nil && body.Error != "" {
		return fmt.Errorf("letdmad: %s (HTTP %d)", body.Error, resp.StatusCode)
	}
	return fmt.Errorf("letdmad: HTTP %d", resp.StatusCode)
}

// printStatus renders one job status for humans.
func printStatus(st serve.JobStatus) {
	fmt.Printf("job     %s\n", st.Key)
	fmt.Printf("state   %s\n", st.State)
	if st.Attempts > 0 {
		fmt.Printf("attempts %d\n", st.Attempts)
	}
	r := st.Result
	if r == nil {
		return
	}
	if r.MILPStatus != "" {
		stop := ""
		if r.StopCause != "" {
			stop = " (stop: " + r.StopCause + ")"
		}
		fmt.Printf("milp    %s%s\n", r.MILPStatus, stop)
	}
	if r.Error != "" {
		fmt.Printf("error   %s\n", r.Error)
	}
	if r.HasIncumbent() {
		fmt.Printf("objective %g  transfers %d  certified %t\n", r.Objective, r.NumTransfers, r.Certified)
		fmt.Println("schedule:")
		for i, tr := range r.Schedule {
			fmt.Printf("  T%-3d %s\n", i+1, tr)
		}
	}
	fmt.Printf("solve   %v\n", r.SolveTime)
}
