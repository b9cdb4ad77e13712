// Package exp is the experiment harness: it regenerates every figure of
// the paper's evaluation (Section VII) as a table of measured runtimes
// and estimates, using scaled-down defaults that complete in minutes on
// a laptop (flags of cmd/experiments restore larger runs).
//
// Absolute runtimes are not comparable to the paper's (different
// hardware, in-memory engine vs. Postgres); the reproduced quantity is
// the shape: which algorithm wins per workload, by roughly what factor,
// and where behaviour crosses over.
package exp

import (
	"fmt"
	"io"
	"strings"
)

// Table is one experiment's result: a header and formatted rows.
type Table struct {
	ID     string // experiment id, e.g. "fig6a"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// WriteText renders the table as aligned plain text.
func (t *Table) WriteText(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	writeRow(t.Header)
	for i, wd := range widths {
		if i > 0 {
			fmt.Fprint(w, "  ")
		}
		fmt.Fprint(w, strings.Repeat("-", wd))
	}
	fmt.Fprintln(w)
	for _, r := range t.Rows {
		writeRow(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// WriteMarkdown renders the table as GitHub markdown.
func (t *Table) WriteMarkdown(w io.Writer) {
	fmt.Fprintf(w, "### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.Header, " | "))
	seps := make([]string, len(t.Header))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(seps, " | "))
	for _, r := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(r, " | "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "\n_%s_\n", n)
	}
	fmt.Fprintln(w)
}

// ms formats a duration in milliseconds with sensible precision.
func ms(millis float64) string {
	switch {
	case millis < 10:
		return fmt.Sprintf("%.2fms", millis)
	case millis < 1000:
		return fmt.Sprintf("%.1fms", millis)
	default:
		return fmt.Sprintf("%.2fs", millis/1000)
	}
}

// prob formats a probability estimate.
func prob(p float64) string { return fmt.Sprintf("%.6g", p) }
