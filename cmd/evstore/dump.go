package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/evstore"
	"repro/internal/mrt"
	"repro/internal/textplot"
)

// runDump prints both on-disk formats of the pipeline. A path may be an
// MRT archive, a single .evp partition, or a store directory; the format
// is detected per path, so mixed invocations work. Records print one
// bgpdump-like line per announced or withdrawn prefix.
func runDump(args []string) error {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	stats := fs.Bool("stats", false, "print per-file statistics instead of records")
	fs.Parse(args)
	if fs.NArg() == 0 {
		return fmt.Errorf("usage: evstore dump [-stats] PATH...")
	}
	for _, path := range fs.Args() {
		if err := dump(path, *stats); err != nil {
			return err
		}
	}
	return nil
}

// dump dispatches on the on-disk format of path.
func dump(path string, stats bool) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	isDir := fi.IsDir()
	switch {
	case isDir && !evstore.IsStoreDir(path):
		return fmt.Errorf("%s: directory holds no %s partitions", path, evstore.Extension)
	case !isDir && !strings.HasSuffix(path, evstore.Extension):
		return dumpMRT(path, stats)
	case stats:
		var infos []evstore.PartitionInfo
		if isDir {
			infos, err = evstore.Stat(path)
		} else {
			var info evstore.PartitionInfo
			info, err = evstore.StatPartition(path)
			infos = []evstore.PartitionInfo{info}
		}
		if err != nil {
			return err
		}
		printStoreStat(os.Stdout, infos)
		return printColumnStat(os.Stdout, infos)
	}
	var scanErr error
	src := evstore.Scan(path, evstore.Query{}, &scanErr)
	if !isDir {
		src = evstore.PartitionSource(path, evstore.Query{}, &scanErr)
	}
	for e := range src {
		fmt.Println(evstore.FormatEvent(e))
	}
	return scanErr
}

// dumpMRT prints one MRT archive, as records or as a summary line.
func dumpMRT(path string, stats bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var first, last mrt.Header
	records := 0
	err = mrt.NewReader(f).Walk(func(h mrt.Header, rec mrt.Record) error {
		if !stats {
			fmt.Println(mrt.Format(h, rec))
		}
		if records == 0 {
			first = h
		}
		last = h
		records++
		return nil
	})
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if !stats {
		return nil
	}
	fmt.Printf("%s: MRT archive, %d records", path, records)
	if records > 0 {
		fmt.Printf(", %s .. %s",
			first.Time().UTC().Format("2006-01-02 15:04:05"),
			last.Time().UTC().Format("2006-01-02 15:04:05"))
	}
	fmt.Println()
	return nil
}

// printColumnStat renders the byte budget of dump -stats: per column,
// the stored and raw bytes of its chunks over every partition listed and
// how many chunks each codec stores, then partition and sidecar bytes
// per event (a partition without a sidecar adds none).
func printColumnStat(w io.Writer, infos []evstore.PartitionInfo) error {
	var cols []evstore.ColumnInfo
	events, partBytes, sideBytes := 0, int64(0), int64(0)
	for _, info := range infos {
		pc, err := evstore.StatColumns(info.Path)
		if err != nil {
			return err
		}
		if cols == nil {
			cols = pc
		} else {
			for c := range cols {
				cols[c].StoredBytes += pc[c].StoredBytes
				cols[c].RawBytes += pc[c].RawBytes
				for k, n := range pc[c].Chunks {
					cols[c].Chunks[k] += n
				}
			}
		}
		events += info.Events
		partBytes += info.SizeBytes
		if fi, err := os.Stat(evstore.SnapshotPath(info.Path)); err == nil {
			sideBytes += fi.Size()
		}
	}
	perEvent := func(n int64) string {
		if events == 0 {
			return "-"
		}
		return fmt.Sprintf("%.2f", float64(n)/float64(events))
	}
	var rows [][]string
	for _, c := range cols {
		ratio := "-"
		if c.RawBytes > 0 {
			ratio = fmt.Sprintf("%.1f%%", 100*float64(c.StoredBytes)/float64(c.RawBytes))
		}
		var mix []string
		for k, n := range c.Chunks {
			if n > 0 {
				mix = append(mix, fmt.Sprintf("%s %d", evstore.Codec(k), n))
			}
		}
		rows = append(rows, []string{c.Name, strconv.FormatInt(c.StoredBytes, 10), strconv.FormatInt(c.RawBytes, 10),
			ratio, perEvent(c.StoredBytes), strings.Join(mix, ", ")})
	}
	fmt.Fprintf(w, "\ncolumns:\n")
	fmt.Fprint(w, textplot.Table([]string{"column", "stored", "raw", "ratio", "B/event", "chunks"}, rows))
	fmt.Fprintf(w, "bytes per event: partitions %s, sidecars %s (%d events)\n", perEvent(partBytes), perEvent(sideBytes), events)
	return nil
}
