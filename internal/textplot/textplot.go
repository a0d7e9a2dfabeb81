// Package textplot renders the paper's figures as ASCII charts: stacked
// bars for per-session type mixes (Figure 3), step/cumulative series
// (Figures 4/5), and multi-series line charts (Figures 2/6).
package textplot

import (
	"fmt"
	"strings"
)

// StackedBar renders one row of a stacked bar chart: segments are drawn
// proportionally using one rune per series.
func StackedBar(label string, segments []float64, runes []rune, total float64, width int) string {
	if width <= 0 {
		width = 40
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s ", label)
	drawn := 0
	var sum float64
	for i, v := range segments {
		sum += v
		target := 0
		if total > 0 {
			target = int(sum / total * float64(width))
		}
		r := '?'
		if i < len(runes) {
			r = runes[i]
		}
		for drawn < target {
			sb.WriteRune(r)
			drawn++
		}
	}
	for drawn < width {
		sb.WriteRune(' ')
		drawn++
	}
	fmt.Fprintf(&sb, " %.0f", sum)
	return sb.String()
}

// Series is one line of a multi-series chart.
type Series struct {
	Name   string
	Points []float64
}

// Lines renders aligned multi-series rows with a shared scale, one row per
// series, one column per point — adequate for the ~11-point yearly series
// of Figures 2 and 6.
func Lines(series []Series, height int) string {
	if height <= 0 {
		height = 8
	}
	var max float64
	n := 0
	for _, s := range series {
		if len(s.Points) > n {
			n = len(s.Points)
		}
		for _, v := range s.Points {
			if v > max {
				max = v
			}
		}
	}
	if n == 0 || max == 0 {
		return "(no data)\n"
	}
	var sb strings.Builder
	for _, s := range series {
		fmt.Fprintf(&sb, "%-6s", s.Name)
		for _, v := range s.Points {
			level := int(v / max * 8)
			if level > 8 {
				level = 8
			}
			sb.WriteRune([]rune(" ▁▂▃▄▅▆▇█")[level])
		}
		fmt.Fprintf(&sb, "  max=%.0f\n", maxOf(s.Points))
	}
	return sb.String()
}

func maxOf(vs []float64) float64 {
	var m float64
	for _, v := range vs {
		if v > m {
			m = v
		}
	}
	return m
}

// Table renders rows with aligned columns separated by two spaces.
func Table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	return sb.String()
}
