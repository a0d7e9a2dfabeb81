package textplot

import (
	"strings"
	"testing"
)

func TestStackedBar(t *testing.T) {
	s := StackedBar("sess", []float64{5, 5}, []rune{'a', 'b'}, 10, 10)
	if !strings.Contains(s, "aaaaabbbbb") {
		t.Errorf("segments wrong: %q", s)
	}
	// Missing rune falls back to '?'.
	s = StackedBar("sess", []float64{10}, nil, 10, 4)
	if !strings.Contains(s, "????") {
		t.Errorf("fallback rune: %q", s)
	}
	// Zero total draws blanks.
	s = StackedBar("sess", []float64{0}, []rune{'a'}, 0, 4)
	if strings.Contains(s, "a") {
		t.Errorf("zero total drew cells: %q", s)
	}
}

func TestLines(t *testing.T) {
	out := Lines([]Series{
		{Name: "pc", Points: []float64{1, 2, 4, 8}},
		{Name: "nn", Points: []float64{8, 4, 2, 1}},
	}, 8)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "pc") || !strings.HasPrefix(lines[1], "nn") {
		t.Errorf("labels: %q", out)
	}
	if Lines(nil, 8) != "(no data)\n" {
		t.Error("empty input")
	}
	if Lines([]Series{{Name: "z", Points: []float64{0, 0}}}, 8) != "(no data)\n" {
		t.Error("all-zero input")
	}
}

func TestTable(t *testing.T) {
	out := Table([]string{"type", "share"}, [][]string{
		{"pc", "33.7%"},
		{"nn", "25.7%"},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("rows = %d: %q", len(lines), out)
	}
	if !strings.Contains(lines[0], "type") || !strings.Contains(lines[1], "----") {
		t.Errorf("header: %q", out)
	}
	if !strings.Contains(lines[2], "pc") || !strings.Contains(lines[3], "25.7%") {
		t.Errorf("body: %q", out)
	}
	// Column width adapts to long cells.
	out = Table([]string{"a"}, [][]string{{"longvalue"}})
	if !strings.Contains(out, "---------") {
		t.Errorf("width: %q", out)
	}
}
