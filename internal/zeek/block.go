//certchain:hotpath — the block splitter and its workers carry every ssl.log byte.

package zeek

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"sync"

	"certchains/internal/certmodel"
)

// blockSize is the size a block is filled to before it is cut at its last
// newline. 64 KiB keeps a few hundred rows per block: large enough that the
// per-block handoff is noise, small enough that in-flight buffers stay a
// rounding error of the heap. Tests shrink it to push rows, directives and
// fragments across block boundaries.
var blockSize = 64 << 10

// maxEmptyReads mirrors bufio's tolerance of Read calls that return neither
// data nor an error before it gives up with io.ErrNoProgress.
const maxEmptyReads = 100

// block is one newline-aligned run of log lines. Every block but a stream's
// last ends with '\n', so only the last can hold an unterminated fragment.
type block struct {
	buf  []byte // owned backing array, reused across blocks
	data []byte // the block's lines
	// fields is the TSV #fields directive in force at the block's first
	// line (nil before any). It is shared read-only between blocks.
	fields []string
}

// splitter cuts a log stream into blocks. A line longer than a block
// extends its block; the bytes after a block's last newline carry over to
// the next block.
type splitter struct {
	r      io.Reader
	tsv    bool     // track #fields directives for the next block's header
	errFmt string   // wraps a read error exactly as the line readers do
	carry  []byte   // bytes read past the previous block's last newline
	fields []string // TSV header in force after the previous block
	err    error    // io.EOF or the read error that ended the stream
}

func newSplitter(r io.Reader, json bool) *splitter {
	if json {
		return &splitter{r: r, errFmt: "zeek: json scan: %w"}
	}
	return &splitter{r: r, tsv: true, errFmt: "zeek: read: %w"}
}

// next fills b with the next block. more=false means the stream ended with
// this block; readErr is the error that ended it, if it was not io.EOF. The
// lines in b precede the read error and must be decoded before it surfaces;
// the fragment after their last newline is dropped, as the line readers
// drop a partial line that an error interrupts.
func (s *splitter) next(b *block) (more bool, readErr error) {
	buf := b.buf[:0]
	if cap(buf) < blockSize {
		buf = make([]byte, 0, blockSize)
	}
	buf = append(buf, s.carry...)
	s.carry = s.carry[:0]
	limit := blockSize
	empty := 0
	for s.err == nil {
		if len(buf) >= limit {
			if bytes.LastIndexByte(buf, '\n') >= 0 {
				break
			}
			limit = 2 * len(buf) // a line longer than a block extends its block
		}
		if limit > cap(buf) {
			grown := make([]byte, len(buf), limit)
			copy(grown, buf)
			buf = grown
		}
		n, err := s.r.Read(buf[len(buf):limit])
		buf = buf[:len(buf)+n]
		switch {
		case err != nil:
			s.err = err
		case n > 0:
			empty = 0
		default:
			if empty++; empty == maxEmptyReads {
				s.err = io.ErrNoProgress
			}
		}
	}
	b.buf = buf
	b.fields = s.fields
	switch s.err {
	case nil:
		cut := bytes.LastIndexByte(buf, '\n') + 1
		s.carry = append(s.carry, buf[cut:]...)
		b.data = buf[:cut]
		if s.tsv {
			s.fields = lastFieldsDirective(b.data, s.fields)
		}
		return true, nil
	case io.EOF:
		b.data = buf
		return false, nil
	default:
		b.data = buf[:bytes.LastIndexByte(buf, '\n')+1]
		return false, fmt.Errorf(s.errFmt, s.err) //certchain:coldpath I/O error path
	}
}

// lastFieldsDirective returns the TSV header in force after data: the last
// #fields directive line in it, else fields. data ends with a newline, so
// every directive it holds is terminated.
func lastFieldsDirective(data []byte, fields []string) []string {
	for off := 0; ; {
		i := bytes.Index(data[off:], fieldsDirective)
		if i < 0 {
			return fields
		}
		i += off
		off = i + 1
		if i > 0 && data[i-1] != '\n' {
			continue
		}
		row := data[i:]
		row = row[:bytes.IndexByte(row, '\n')]
		if n := len(row); row[n-1] == '\r' {
			row = row[:n-1]
		}
		if f, ok := parseFieldsDirective(row); ok {
			fields = f
		}
	}
}

// lineError is a stream error that names a log line. Workers decode blocks
// before the lines ahead of them are counted, so they number lines from the
// block's start; the ordered merge adds the block's base line before the
// error surfaces.
type lineError struct {
	prefix string // "zeek: line" or "zeek: json line"
	line   int
	err    error
}

func (e *lineError) Error() string {
	return e.prefix + " " + strconv.Itoa(e.line) + ": " + e.err.Error()
}

func (e *lineError) Unwrap() error { return e.err }

// rebase shifts a block-relative line error to file lines.
func rebase(err error, base int) error {
	if le, ok := err.(*lineError); ok {
		le.line += base
	}
	return err
}

// eachBlock feeds r's blocks to decode in file order on the calling
// goroutine; decode gets the number of lines before the block and returns
// the number it holds. The first error wins: a decode error, else the read
// error after every block read before it.
func eachBlock(r io.Reader, json bool, decode func(b *block, base int) (lines int, err error)) error {
	s := newSplitter(r, json)
	var b block
	base := 0
	for {
		more, readErr := s.next(&b)
		n, err := decode(&b, base)
		if err != nil {
			return err
		}
		if readErr != nil {
			return readErr
		}
		if !more {
			return nil
		}
		base += n
	}
}

// BlockFold consumes a block-parallel join (FoldBlocks): each block's
// joined rows are folded into a per-block aggregate on a worker, and the
// aggregates are merged one by one in file order.
type BlockFold[A any] struct {
	// New returns an empty aggregate. Aggregates are recycled across
	// blocks, so Merge must leave its argument empty again.
	New func() A
	// Fold folds one joined row, or its per-row join error, into agg. It
	// runs on a block worker, in row order within the block. c and its SSL
	// record are pooled and valid only until Fold returns; field strings
	// and the Chain may be retained. Chains are canonical per worker, not
	// across workers.
	Fold func(agg A, c *Connection, rowErr error)
	// Merge consumes one block's aggregate. It runs on FoldBlocks' caller,
	// once per block, in file order; an error stops the join.
	Merge func(agg A) error
}

// FoldBlocks is FastJoin spread over every core. The x509 log is indexed
// serially; the ssl log is cut into newline-aligned blocks that
// GOMAXPROCS workers decode and join in place, each with its own joiner
// state, folding rows through f. Merges run in file order, and errors are
// FastJoin's, byte for byte: the first stream error in file order wins,
// with file line numbers, and a read error surfaces only after every block
// read before it. After an error the reader and workers stop (a Read
// already in progress is waited for), and every goroutine has exited when
// FoldBlocks returns.
func FoldBlocks[A any](ssl, x509 io.Reader, f BlockFold[A]) error {
	return foldBlocks(ssl, x509, false, f)
}

// FoldBlocksJSON is FoldBlocks for Zeek's ND-JSON log format.
func FoldBlocksJSON[A any](ssl, x509 io.Reader, f BlockFold[A]) error {
	return foldBlocks(ssl, x509, true, f)
}

// foldJob is one block in flight: the reader fills it, a worker folds it,
// the merger consumes it and hands it back for the next block.
type foldJob[A any] struct {
	b       block
	agg     A
	lines   int
	err     error         // the worker's decode error, block-relative
	readErr error         // set on the stream's terminal job instead of a block
	done    chan struct{} // the worker's completion signal, one per use
}

func foldBlocks[A any](ssl, x509 io.Reader, json bool, f BlockFold[A]) error {
	certs, err := indexCerts(x509, json)
	if err != nil {
		return err
	}
	width := runtime.GOMAXPROCS(0)
	// Jobs are bounded: the reader waits for the merger to recycle one
	// before it reads past 2*width+2 blocks ahead of the merge. Every
	// channel holds all of them (order one more, for a read error), so no
	// send blocks.
	inFlight := 2*width + 2
	free := make(chan *foldJob[A], inFlight)
	for range inFlight {
		free <- &foldJob[A]{agg: f.New(), done: make(chan struct{}, 1)}
	}
	work := make(chan *foldJob[A], inFlight)
	order := make(chan *foldJob[A], inFlight+1)
	quit := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(quit)

	wg.Add(1 + width)
	go func() {
		defer wg.Done()
		defer close(work)
		defer close(order)
		s := newSplitter(ssl, json)
		for {
			var jb *foldJob[A]
			select {
			case jb = <-free:
			case <-quit:
				return
			}
			more, readErr := s.next(&jb.b)
			if !sendJob(order, jb, quit) || !sendJob(work, jb, quit) {
				return
			}
			if readErr != nil {
				sendJob(order, &foldJob[A]{readErr: readErr}, quit)
				return
			}
			if !more {
				return
			}
		}
	}()
	for w := 0; w < width; w++ {
		go func() {
			defer wg.Done()
			j := newFastJoiner()
			var agg A
			fold := func(c *Connection, err error) error {
				f.Fold(agg, c, err)
				return nil
			}
			for jb := range work {
				select {
				case <-quit: // drain: the merge has stopped
				default:
					agg = jb.agg
					jb.lines, jb.err = j.join(json, &jb.b, 0, certs, fold)
				}
				jb.done <- struct{}{}
			}
		}()
	}

	base := 0
	for jb := range order {
		if jb.readErr != nil {
			return jb.readErr
		}
		<-jb.done
		if jb.err != nil {
			return rebase(jb.err, base)
		}
		base += jb.lines
		if err := f.Merge(jb.agg); err != nil {
			return err
		}
		free <- jb
	}
	return nil
}

// sendJob sends jb unless the merge has stopped.
func sendJob[A any](ch chan<- *foldJob[A], jb *foldJob[A], quit <-chan struct{}) bool {
	select {
	case ch <- jb:
		return true
	case <-quit:
		return false
	}
}

// join decodes one ssl block through fn in row order.
func (j *fastJoiner) join(json bool, b *block, base int, certs map[string]*certmodel.Meta, fn func(*Connection, error) error) (int, error) {
	if json {
		return j.joinSSLJSON(b, base, certs, fn)
	}
	return j.joinSSLTSV(b, base, certs, fn)
}

// indexCerts builds the certificate index serially with its own joiner; the
// index is shared read-only by every block worker.
func indexCerts(x509 io.Reader, json bool) (map[string]*certmodel.Meta, error) {
	j := newFastJoiner()
	certs := make(map[string]*certmodel.Meta)
	index := j.indexX509TSV
	if json {
		index = j.indexX509JSON
	}
	err := eachBlock(x509, json, func(b *block, base int) (int, error) {
		return index(b, base, certs)
	})
	if err != nil {
		return nil, err
	}
	return certs, nil
}
