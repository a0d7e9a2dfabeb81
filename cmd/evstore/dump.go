package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/evstore"
	"repro/internal/mrt"
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
		return nil
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
