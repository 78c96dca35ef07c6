package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"omega"
)

// repl implements the console layer of the paper's architecture (§3): users
// submit queries, results stream back in order of increasing distance, and
// "users [are] able to specify a limit on the number of results returned in
// each phase" — the `more` command pulls the next batch. Each query is
// compiled once with PrepareText and executed under eo, the execution knobs
// of the command line, with a cancellable context: ctrl-C while a batch is
// streaming cancels the running query (releasing its evaluation state) and
// returns to the prompt. eo's Limit is dropped, since batches and `more`
// page through the answers instead; explain renders the plan under the same
// knobs.
func repl(in io.Reader, out io.Writer, eng *omega.Engine, eo omega.ExecOptions, batch int) {
	eo.Limit = 0
	fmt.Fprintln(out, "omega console — type a query, 'help', or 'quit' (ctrl-C cancels a running query)")
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var current *omega.Rows
	var cancel context.CancelFunc
	served := 0
	closeCurrent := func() {
		if current != nil {
			_ = current.Close()
			cancel()
			current, cancel = nil, nil
		}
	}
	defer closeCurrent()
	prompt := func() { fmt.Fprint(out, "omega> ") }
	prompt()
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == "quit" || line == "exit":
			return
		case line == "help":
			fmt.Fprintln(out, `commands:
  (?X) <- APPROX (a, p.q, ?X)   submit a CRP query; prints the first batch
  more [n]                      next n answers of the current query (default batch)
  explain <query>               show the evaluation plan
  help | quit`)
		case line == "more" || strings.HasPrefix(line, "more "):
			if current == nil {
				fmt.Fprintln(out, "no active query")
				break
			}
			n := batch
			if rest := strings.TrimSpace(strings.TrimPrefix(line, "more")); rest != "" {
				if v, err := strconv.Atoi(rest); err == nil && v > 0 {
					n = v
				}
			}
			served += printBatch(out, current, cancel, n)
		case strings.HasPrefix(line, "explain "):
			pq, err := eng.PrepareText(strings.TrimPrefix(line, "explain "))
			if err != nil {
				fmt.Fprintf(out, "error: %v\n", err)
				break
			}
			plan, err := pq.Explain(eo)
			if err != nil {
				fmt.Fprintf(out, "error: %v\n", err)
				break
			}
			fmt.Fprint(out, plan)
		default:
			pq, err := eng.PrepareText(line)
			if err != nil {
				fmt.Fprintf(out, "error: %v\n", err)
				break
			}
			closeCurrent()
			ctx, c := context.WithCancel(context.Background())
			rows, err := pq.Exec(ctx, eo)
			if err != nil {
				c()
				fmt.Fprintf(out, "error: %v\n", err)
				break
			}
			current, cancel = rows, c
			served = 0
			start := time.Now()
			served += printBatch(out, current, cancel, batch)
			fmt.Fprintf(out, "(%d answer(s) in %v; 'more' for the next batch)\n",
				served, time.Since(start).Round(time.Microsecond))
		}
		prompt()
	}
}

// printBatch pulls up to n answers and prints them; returns how many came.
// While the batch streams, an interrupt signal cancels the query's context;
// the cancellation surfaces as ErrCanceled from Next.
func printBatch(out io.Writer, rows *omega.Rows, cancel context.CancelFunc, n int) int {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	done := make(chan struct{})
	go func() {
		select {
		case <-sig:
			cancel()
		case <-done:
		}
	}()
	got, err := rows.Collect(n)
	close(done)
	signal.Stop(sig)

	for _, r := range got {
		fmt.Fprintf(out, "  %v\n", r)
	}
	if errors.Is(err, omega.ErrCanceled) {
		fmt.Fprintln(out, "  (query canceled)")
		return len(got)
	}
	if err != nil {
		fmt.Fprintf(out, "error: %v\n", err)
		return len(got)
	}
	if len(got) < n {
		fmt.Fprintln(out, "  (no more answers)")
	}
	return len(got)
}
