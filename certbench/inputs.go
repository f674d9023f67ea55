package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"certchains/internal/analysis"
	"certchains/internal/campus"
	"certchains/internal/dist"
)

// sizes fixes one workload's input and load. Every field is a constant of
// the workload (see workloads); tests shrink Scale to run in seconds.
type sizes struct {
	// Scale is the campus generator scale (fraction of paper volume).
	Scale float64
	// ConnCap caps the ssl rows written per observation (0 = no cap).
	ConnCap int64
	// Partitions is the number of input partitions (dist-json-gz only).
	Partitions int
}

// inputSet is one workload's generated log corpus: partitions of an
// ssl.log/x509.log pair each, in the repository's partition naming.
type inputSet struct {
	format  analysis.Format
	parts   []dist.Partition
	sslRows int64
}

func scenarioConfig(seed int64, scale float64) campus.Config {
	cfg := campus.DefaultConfig()
	cfg.Seed = seed
	cfg.Scale = scale
	return cfg
}

// sslRows is the number of ssl.log rows the writers emit for observations
// under a per-observation cap (the formula analysis.Write uses).
func sslRows(obs []*campus.Observation, limit int64) int64 {
	var n int64
	for _, o := range obs {
		c := o.Conns
		if limit > 0 && c > limit {
			c = limit
		}
		n += c
	}
	return n
}

// writeInputs materializes the workload's logs from the scenario with the
// repository's own writer, analysis.Write.
func writeInputs(workload string, s *campus.Scenario, sz sizes, dir string) (*inputSet, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	in := &inputSet{sslRows: sslRows(s.Observations, sz.ConnCap)}
	var err error
	switch workload {
	case "batch-tsv":
		in.format = analysis.FormatTSV
		err = writePair(dir, "batch", false, func(ssl, x509 io.Writer) error {
			return analysis.Write(s.Observations, ssl, x509, analysis.WriteOptions{MaxConnsPerObservation: sz.ConnCap})
		})
	case "dist-json-gz":
		// dist.WritePartitions caps nothing, so the partitions are written
		// here, one gzip ND-JSON pair per contiguous observation slice.
		in.format = analysis.FormatJSON
		for i, part := range dist.SplitObservations(s.Observations, sz.Partitions) {
			err = writePair(dir, fmt.Sprintf("part-%03d", i), true, func(ssl, x509 io.Writer) error {
				return analysis.Write(part, ssl, x509, analysis.WriteOptions{
					MaxConnsPerObservation: sz.ConnCap, Format: analysis.FormatJSON})
			})
			if err != nil {
				break
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return nil, err
	}
	if in.parts, err = dist.DiscoverPartitions(dir); err != nil {
		return nil, err
	}
	return in, nil
}

// writePair creates <stem>.ssl.log and <stem>.x509.log in dir (gzipped when
// gz) and fills them with write.
func writePair(dir, stem string, gz bool, write func(ssl, x509 io.Writer) error) error {
	var files []*os.File
	var ws []io.Writer
	var flush []func() error
	for _, kind := range []string{"ssl", "x509"} {
		f, err := os.Create(filepath.Join(dir, stem+"."+kind+".log"))
		if err != nil {
			return err
		}
		defer f.Close()
		files = append(files, f)
		if gz {
			zw := gzip.NewWriter(f)
			ws = append(ws, zw)
			flush = append(flush, zw.Close)
		} else {
			bw := bufio.NewWriterSize(f, 1<<20)
			ws = append(ws, bw)
			flush = append(flush, bw.Flush)
		}
	}
	if err := write(ws[0], ws[1]); err != nil {
		return fmt.Errorf("write %s: %w", stem, err)
	}
	for i, f := range files {
		if err := flush[i](); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// openLog opens a log file, gunzipping it when it starts with the gzip
// magic, as the repository's loaders do.
func openLog(path string) (io.Reader, func(), error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	br := bufio.NewReaderSize(f, 1<<16)
	magic, _ := br.Peek(2)
	if len(magic) == 2 && magic[0] == 0x1f && magic[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		return zr, func() { f.Close() }, nil
	}
	return br, func() { f.Close() }, nil
}

// warm reads every input file once so timed passes start with a warm page
// cache.
func (in *inputSet) warm() error {
	for _, p := range in.parts {
		for _, path := range []string{p.SSL, p.X509} {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			_, err = io.Copy(io.Discard, f)
			f.Close()
			if err != nil {
				return err
			}
		}
	}
	return nil
}
