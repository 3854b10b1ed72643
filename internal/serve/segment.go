package serve

import (
	"archive/tar"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"extradeep/internal/ingest"
	"extradeep/internal/pipeline"
)

// The spool holds each accepted upload batch as one segment: a tar
// archive SpoolDir/<app>/<seq>.tar with one regular-file entry per
// document, in document order, named by the document's canonical file
// name and holding exactly its bytes. Unpacking every segment of an
// application into one directory gives the files a batch run would
// analyze. Loose canonical profile files in an application directory
// (put there by an operator, or by an older server that spooled one
// file per profile) are read as single documents alongside the
// segments; uploads never write them.

// segmentExt is the file-name suffix of a spool segment.
const segmentExt = ".tar"

// compareBufSize is the chunk a campaign compares a segment entry with
// its handed-off bytes in.
const compareBufSize = 16 << 10

// segmentName is the file name of an application's seq-th segment. The
// zero padding keeps name order equal to upload order.
func segmentName(seq int) string {
	return fmt.Sprintf("%08d%s", seq, segmentExt)
}

// segmentSeq parses a segment file name back to its sequence number.
func segmentSeq(name string) (int, bool) {
	digits, ok := strings.CutSuffix(name, segmentExt)
	if !ok || digits == "" {
		return 0, false
	}
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
	}
	seq, err := strconv.Atoi(digits)
	return seq, err == nil
}

// lastSegment returns the largest segment number in dir (0 when it holds
// none).
func lastSegment(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	last := 0
	for _, e := range entries {
		if seq, ok := segmentSeq(e.Name()); ok && !e.IsDir() && seq > last {
			last = seq
		}
	}
	return last, nil
}

// docEntry reports whether a segment entry is a profile document: a
// regular file whose name is a plain base name with a profile extension.
// Any other entry is skipped, as foreign files in the directory are.
func docEntry(hdr *tar.Header) bool {
	_, ok := formatOf(hdr.Name)
	return ok && hdr.Typeflag == tar.TypeReg && !strings.Contains(hdr.Name, "/")
}

// spool admits a validated upload and publishes its part file as the
// application's next segment, returning the segment's name; on any
// failure the part file is discarded. Admission comes first, so a
// conflict (409) outranks a failed part-file write. The caller holds
// a.upMu, which also guards the segment counter; the first upload of an
// application in this process seeds it from the largest segment on
// disk, so a restarted server never reuses a name.
func (s *Server) spool(a *appState, in *intake) (string, error) {
	err := a.admit(in.format, in.batch)
	if err == nil {
		err = in.werr
	}
	if err == nil && !a.seqKnown {
		var last int
		if last, err = lastSegment(in.part.dir); err != nil {
			err = fmt.Errorf("scanning spool directory: %w", err)
		}
		a.seq, a.seqKnown = last, err == nil
	}
	if err != nil {
		in.part.discard()
		return "", err
	}
	name := segmentName(a.seq + 1)
	if err := in.part.publish(name); err != nil {
		return "", fmt.Errorf("spooling segment %s: %w", name, err)
	}
	a.seq++
	return name, nil
}

// appDir returns the application's spool directory, creating it on
// first use. A new directory is on disk only once the spool root's entry
// for it is, so its creator syncs the root; dirMu makes creation and
// that sync one step, so no upload finds the directory before its entry
// is durable.
func (s *Server) appDir(app string) (string, error) {
	dir := filepath.Join(s.cfg.SpoolDir, app)
	s.dirMu.Lock()
	defer s.dirMu.Unlock()
	if err := os.Mkdir(dir, 0o755); err == nil {
		if err := syncDir(s.cfg.SpoolDir); err != nil {
			return "", fmt.Errorf("creating spool directory: %w", err)
		}
	} else if !errors.Is(err, fs.ErrExist) {
		return "", fmt.Errorf("creating spool directory: %w", err)
	}
	return dir, nil
}

// partFile is a segment being written: a privately named ".part" file in
// the application's spool directory that receives one tar entry per
// document, in document order, as the upload validates them. No
// campaign reads a ".part" file and serve.New deletes any it finds, so
// a batch becomes visible only when publish renames it, all at once.
// Headers carry no clock value and no owner, so equal batches give
// byte-identical segments; the header format is left to archive/tar,
// which switches to PAX for names longer than USTAR allows.
type partFile struct {
	dir string
	f   *os.File
	tw  *tar.Writer
}

// createPart creates an empty part file in dir.
func createPart(dir string) (*partFile, error) {
	f, err := os.CreateTemp(dir, "*.part")
	if err != nil {
		return nil, err
	}
	return &partFile{dir: dir, f: f, tw: tar.NewWriter(f)}, nil
}

// add appends u's entry.
func (p *partFile) add(u upload) error {
	hdr := tar.Header{Typeflag: tar.TypeReg, Name: u.name, Mode: 0o644, Size: int64(len(u.data))}
	if err := p.tw.WriteHeader(&hdr); err != nil {
		return err
	}
	_, err := p.tw.Write(u.data)
	return err
}

// finish ends the archive, syncs the file to disk and closes it.
func (p *partFile) finish() error {
	err := p.tw.Close()
	if err == nil {
		err = p.f.Sync()
	}
	if cerr := p.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// discard closes and removes the part file. It does nothing to a part
// file that publish renamed.
func (p *partFile) discard() {
	if p == nil || p.f == nil {
		return
	}
	_ = p.f.Close()
	_ = os.Remove(p.f.Name())
	p.f = nil
}

// publish renames the finished part file to the segment name and syncs
// the directory, so the segment is durable before the upload is
// acknowledged. On failure nothing of the batch is left under either
// name.
func (p *partFile) publish(name string) error {
	path := filepath.Join(p.dir, name)
	if err := os.Rename(p.f.Name(), path); err != nil {
		p.discard()
		return err
	}
	p.f = nil
	if err := syncDir(p.dir); err != nil {
		_ = os.Remove(path)
		return err
	}
	return nil
}

// syncDir flushes a directory's entries to disk. Windows cannot flush a
// directory handle, so there it does nothing.
func syncDir(dir string) error {
	if runtime.GOOS == "windows" {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// tarBlock is archive/tar's block size: entry data is padded to whole
// blocks, and an archive ends with two zero blocks.
const tarBlock = 512

// segmentEntry locates the data of one document entry in a segment
// file.
type segmentEntry struct {
	// pos is the entry's position among all the segment's entries; the
	// batch a segment was written from holds its document at the same
	// position.
	pos       int
	name      string
	off, size int64
}

// indexSegment reads the headers of the segment f, size bytes long, and
// returns its document entries in order; archive/tar seeks over the
// entry data. An entry is indexed only if its data ends within the
// file, and the index is whole only if the two zero blocks that close
// an archive follow the last entry, so an index cut short by a framing
// break — the returned error — holds exactly the entries before the
// break.
func indexSegment(f *os.File, size int64) ([]segmentEntry, error) {
	var out []segmentEntry
	tr := tar.NewReader(f)
	// end is where the last entry's data, padded to whole blocks, ends.
	var end int64
	for pos := 0; ; pos++ {
		hdr, err := tr.Next()
		if err == io.EOF {
			// archive/tar also reports a file that stops exactly at an
			// entry boundary as a clean end; only a reader that has
			// consumed the closing zero blocks has seen the whole segment.
			at, err := f.Seek(0, io.SeekCurrent)
			if err == nil && at < end+2*tarBlock {
				err = fmt.Errorf("no end-of-archive marker after byte %d: %w", end, io.ErrUnexpectedEOF)
			}
			return out, err
		}
		if err != nil {
			return out, err
		}
		// The reader reads headers straight from f, so f's offset is
		// where the entry's data starts.
		off, err := f.Seek(0, io.SeekCurrent)
		if err != nil {
			return out, err
		}
		if hdr.Size > size-off {
			return out, fmt.Errorf("entry %s: %w", hdr.Name, io.ErrUnexpectedEOF)
		}
		end = off + (hdr.Size+tarBlock-1)/tarBlock*tarBlock
		if docEntry(hdr) {
			out = append(out, segmentEntry{pos: pos, name: hdr.Name, off: off, size: hdr.Size})
		}
	}
}

// indexSegmentFile indexes the segment at path (see indexSegment).
func indexSegmentFile(path string) ([]segmentEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return indexSegment(f, st.Size())
}

// spoolDoc is one document a campaign reads: entry e of the seg-th
// segment, or the loose file named e.name when seg is negative.
type spoolDoc struct {
	seg int
	e   segmentEntry
}

// spoolLoader returns the ingest hook of one campaign over an
// application's spool directory (see pipeline.RunSpec.Load): the
// documents of every segment and every loose profile file of the
// format, in name order, each segment entry under the path
// dir/<entry name> that one file per document would have. handoff maps
// a segment name to the batch it was written from, whose profiles
// upload validation already decoded. workers must be resolved (≥ 1).
//
// Every segment is indexed first; then the documents of all segments,
// and the loose files, are split into one contiguous run per worker, so
// a spool of many small segments is read as widely as one large
// segment. A run holds open one segment at a time and compares through
// one buffer: an entry that holds exactly the bytes of the handed-off
// document at its position reuses that document's profile and none of
// it is kept; every other entry is read whole and decoded by the same
// worker. A segment that cannot be opened, or whose framing breaks,
// adds one read-stage load naming the segment; the entries before the
// break are kept.
func spoolLoader(dir, format string, workers int, handoff map[string][]upload) func(context.Context) ([]ingest.File, error) {
	return func(ctx context.Context) ([]ingest.File, error) {
		listing, err := os.ReadDir(dir)
		if err != nil {
			return nil, fmt.Errorf("serve: listing spool %s: %w", dir, err)
		}
		var segs, loose []string
		for _, e := range listing {
			if e.IsDir() {
				continue
			}
			if _, ok := segmentSeq(e.Name()); ok {
				segs = append(segs, e.Name())
			} else if f, ok := formatOf(e.Name()); ok && f == format {
				loose = append(loose, e.Name())
			}
		}
		index := make([][]segmentEntry, len(segs))
		broken := make([]error, len(segs))
		err = pipeline.ForEach(ctx, workers, len(segs), func(i int) error {
			index[i], broken[i] = indexSegmentFile(filepath.Join(dir, segs[i]))
			return nil
		})
		if err != nil {
			return nil, err
		}
		var docs []spoolDoc
		for i, entries := range index {
			for _, e := range entries {
				if f, _ := formatOf(e.name); f == format {
					docs = append(docs, spoolDoc{seg: i, e: e})
				}
			}
		}
		for _, name := range loose {
			docs = append(docs, spoolDoc{seg: -1, e: segmentEntry{name: name}})
		}

		files := make([]ingest.File, len(docs))
		runs := min(workers, len(docs))
		err = pipeline.ForEach(ctx, runs, runs, func(r int) error {
			buf := make([]byte, compareBufSize)
			var f *os.File
			var openErr error
			cur := -1
			defer func() {
				if f != nil {
					_ = f.Close()
				}
			}()
			for i := r * len(docs) / runs; i < (r+1)*len(docs)/runs; i++ {
				d, out := docs[i], &files[i]
				out.Path = filepath.Join(dir, d.e.name)
				if d.seg < 0 {
					*out = ingest.LoadFile(out.Path, format)
					continue
				}
				if d.seg != cur {
					if f != nil {
						_ = f.Close()
					}
					cur = d.seg
					f, openErr = os.Open(filepath.Join(dir, segs[cur]))
				}
				var want *upload
				if handed := handoff[segs[cur]]; d.e.pos < len(handed) && handed[d.e.pos].name == d.e.name {
					want = &handed[d.e.pos]
				}
				var data []byte
				var same bool
				err := openErr
				if err == nil {
					data, same, err = readEntry(f, d.e.off, d.e.size, want, buf)
				}
				switch {
				case err != nil:
					out.Stage, out.Err = ingest.StageRead, err
				case same:
					out.Profile, out.Reused = want.profile, true
				default:
					out.Profile, out.Stage, out.Err = ingest.DecodeBytes(data, format)
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		for i, err := range broken {
			if err != nil {
				files = append(files, ingest.File{Path: filepath.Join(dir, segs[i]), Stage: ingest.StageRead, Err: fmt.Errorf("spool segment: %w", err)})
			}
		}
		sort.SliceStable(files, func(i, j int) bool { return files[i].Path < files[j].Path })
		return files, nil
	}
}

// readEntry reads the entry of size bytes at off in r. When want is set
// and the entry holds exactly want.data, it reports same and returns no
// data: the entry is compared through buf, never held whole. Otherwise,
// a mismatch included, it reads and returns the whole entry.
func readEntry(r io.ReaderAt, off, size int64, want *upload, buf []byte) (data []byte, same bool, err error) {
	if want != nil && int64(len(want.data)) == size {
		k := 0
		for ; k < len(want.data); k += len(buf) {
			n := min(len(buf), len(want.data)-k)
			if _, err := r.ReadAt(buf[:n], off+int64(k)); err != nil {
				return nil, false, err
			}
			if !bytes.Equal(buf[:n], want.data[k:k+n]) {
				break
			}
		}
		if k >= len(want.data) {
			return nil, true, nil
		}
	}
	data = make([]byte, size)
	_, err = r.ReadAt(data, off)
	return data, false, err
}
