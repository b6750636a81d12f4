// Package report renders the experiment artifacts — the allocation tables
// of Tables 1-2 and the per-entity bar charts of Figures 2-3 — as plain
// text for the command-line harness, and wraps the -json documents in
// versioned envelopes.
package report

import (
	"fmt"
	"strings"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row (values are formatted with %v).
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table.
func (t *Table) String() string {
	cols := len(t.Headers)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.Headers)
	for _, r := range t.Rows {
		measure(r)
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(r []string) {
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(r) {
				c = r[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, cols)
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// BarPair is one entity's pair of bars (e.g. shared vs partitioned
// misses, or expected vs simulated).
type BarPair struct {
	Label string
	A, B  float64
}

// BarChart renders grouped horizontal bars, Figure 2/3 style.
type BarChart struct {
	Title  string
	ALabel string
	BLabel string
	Pairs  []BarPair
	Width  int // bar width in characters; 0 = 40
}

// String renders the chart with both bars scaled to the global maximum.
func (c *BarChart) String() string {
	width := c.Width
	if width == 0 {
		width = 40
	}
	max := 0.0
	labelW := 0
	for _, p := range c.Pairs {
		if p.A > max {
			max = p.A
		}
		if p.B > max {
			max = p.B
		}
		if len(p.Label) > labelW {
			labelW = len(p.Label)
		}
	}
	if max == 0 {
		max = 1
	}
	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s\n", c.Title)
	}
	fmt.Fprintf(&b, "%*s  %s=#  %s=~\n", labelW, "", c.ALabel, c.BLabel)
	bar := func(v float64, ch byte) string {
		n := int(v / max * float64(width))
		if v > 0 && n == 0 {
			n = 1
		}
		return strings.Repeat(string(ch), n)
	}
	for _, p := range c.Pairs {
		fmt.Fprintf(&b, "%*s |%-*s %12.0f\n", labelW, p.Label, width, bar(p.A, '#'), p.A)
		fmt.Fprintf(&b, "%*s |%-*s %12.0f\n", labelW, "", width, bar(p.B, '~'), p.B)
	}
	return b.String()
}
