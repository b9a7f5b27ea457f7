package fasp

import (
	"compress/gzip"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"fasp/internal/shard"
)

// ErrBadSnapshot tags every snapshot-format failure — truncated or
// corrupted file, wrong magic, implausible header fields, short payload —
// so callers can distinguish "this file is not a usable snapshot" from
// environmental errors (missing file, permissions) with errors.Is.
var ErrBadSnapshot = errors.New("fasp: bad snapshot")

// snapshotHeader describes a saved store; the payload is one gzip'd PM
// medium image (version 1: a DB or a one-shard KV) or N images
// (version 2, a KV of N > 1 shards) — crash-consistent by construction:
// only flushed data is in the medium.
//
// Version 2 additionally records the shard count and group-commit bound so
// the store reopens with the same key partitioning (ShardFor is an
// on-disk contract: images are only meaningful under the hash that built
// them).
type snapshotHeader struct {
	Magic    string
	Version  int
	Scheme   string
	PageSize int
	MaxPages int
	Shards   int // version >= 2
	MaxBatch int // version >= 2
}

const snapshotMagic = "FASP-SNAPSHOT"

// validate rejects headers that could not have been written by Save —
// wrong magic or version, geometry outside any buildable store, or (v2) a
// shard count the restore loop could silently mishandle (a zero shard
// count would restore no images at all and hand back an empty store) or a
// batch bound the engine would refuse.
func (h snapshotHeader) validate() error {
	if h.Magic != snapshotMagic || h.Version < 1 || h.Version > 2 {
		return fmt.Errorf("%w: not a fasp snapshot (magic %q v%d)", ErrBadSnapshot, h.Magic, h.Version)
	}
	if h.PageSize < 64 || h.PageSize > 1<<20 {
		return fmt.Errorf("%w: implausible page size %d", ErrBadSnapshot, h.PageSize)
	}
	if h.MaxPages < 1 || h.MaxPages > 1<<28 {
		return fmt.Errorf("%w: implausible page bound %d", ErrBadSnapshot, h.MaxPages)
	}
	if h.Version >= 2 && (h.Shards < 1 || h.Shards > 4096) {
		return fmt.Errorf("%w: implausible shard count %d", ErrBadSnapshot, h.Shards)
	}
	if h.Version >= 2 && h.MaxBatch > shard.MaxBatchLimit {
		return fmt.Errorf("%w: implausible batch bound %d", ErrBadSnapshot, h.MaxBatch)
	}
	return nil
}

// readImage decodes the next medium image and checks it against the
// header's geometry before anything is sized from that geometry. Every
// store format is its pages plus more (a FAST store adds its slot-header
// log, a WAL store its log), so an image no longer than PageSize ×
// MaxPages cannot be one; checked first, the arena a loader builds for the
// geometry is bounded by bytes the file really holds.
func readImage(dec *gob.Decoder, hdr snapshotHeader) ([]byte, error) {
	var img []byte
	if err := dec.Decode(&img); err != nil {
		return nil, fmt.Errorf("%w: payload: %w", ErrBadSnapshot, err)
	}
	if pages := int64(hdr.PageSize) * int64(hdr.MaxPages); pages >= int64(len(img)) {
		return nil, fmt.Errorf("%w: a %d-byte image cannot hold %d pages of %d bytes",
			ErrBadSnapshot, len(img), hdr.MaxPages, hdr.PageSize)
	}
	return img, nil
}

// writeSnapshotAtomic writes a snapshot through fn to a temp file in
// path's directory and renames it into place only after the data is
// synced, so a mid-save error or crash never destroys the previous good
// snapshot. The write-side Close error is propagated, not discarded.
func writeSnapshotAtomic(path string, fn func(enc *gob.Encoder) error) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	zw := gzip.NewWriter(f)
	if err = fn(gob.NewEncoder(zw)); err != nil {
		return err
	}
	if err = zw.Close(); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// saveSnapshot writes opts' geometry and the given PM medium images to path:
// one image is the version-1 single-image format (what OpenSnapshot and
// cmd/faspinspect read), several are version 2 with the shard count and
// batch bound. The file is written to a temp sibling and
// atomically renamed into place.
func saveSnapshot(path string, opts Options, imgs [][]byte) error {
	hdr := snapshotHeader{
		Magic:    snapshotMagic,
		Version:  1,
		Scheme:   opts.Scheme,
		PageSize: opts.PageSize,
		MaxPages: opts.MaxPages,
	}
	if len(imgs) > 1 {
		hdr.Version, hdr.Shards, hdr.MaxBatch = 2, len(imgs), opts.MaxBatch
	}
	return writeSnapshotAtomic(path, func(enc *gob.Encoder) error {
		if err := enc.Encode(hdr); err != nil {
			return err
		}
		for _, img := range imgs {
			if err := enc.Encode(img); err != nil {
				return err
			}
		}
		return nil
	})
}

// Save writes a crash-consistent snapshot of the store's persistent memory
// to path. Unflushed (volatile) data is not included — loading a snapshot
// is equivalent to recovering after a power failure at the moment of the
// save, so committed transactions are always recovered intact.
func (db *DB) Save(path string) error {
	return saveSnapshot(path, db.opts, [][]byte{db.arena.MediumSnapshot()})
}

// Save writes a crash-consistent snapshot of every shard's medium image to
// path (see DB.Save). Each image is individually crash-consistent, and
// because the engine offers no cross-shard transactions, any skew between
// shard images is benign (it looks like shards crashing microseconds
// apart).
func (kv *KV) Save(path string) error {
	return saveSnapshot(path, kv.opts, kv.eng.MediumSnapshots())
}

// readSnapshotHeader opens path and decodes the header, returning the
// still-open decoder positioned at the first medium image.
func readSnapshotHeader(path string) (*os.File, *gob.Decoder, snapshotHeader, error) {
	var hdr snapshotHeader
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, hdr, err
	}
	zr, err := gzip.NewReader(f)
	if err != nil {
		f.Close()
		return nil, nil, hdr, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	dec := gob.NewDecoder(zr)
	if err := dec.Decode(&hdr); err != nil {
		f.Close()
		return nil, nil, hdr, fmt.Errorf("%w: header: %w", ErrBadSnapshot, err)
	}
	if err := hdr.validate(); err != nil {
		f.Close()
		return nil, nil, hdr, err
	}
	return f, dec, hdr, nil
}

// OpenSnapshot loads a SQL database saved with Save, running crash
// recovery on the image. opts supplies the simulated-machine knobs
// (latencies, cache size); the store geometry and scheme come from the file.
func OpenSnapshot(path string, opts Options) (*DB, error) {
	f, dec, hdr, err := readSnapshotHeader(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if hdr.Version != 1 {
		return nil, fmt.Errorf("fasp: snapshot %s is sharded (v%d); only OpenSnapshotKV can load it", path, hdr.Version)
	}
	img, err := readImage(dec, hdr)
	if err != nil {
		return nil, err
	}
	opts.Scheme = hdr.Scheme
	opts.PageSize = hdr.PageSize
	opts.MaxPages = hdr.MaxPages
	db, err := newDB(opts)
	if err != nil {
		return nil, err
	}
	if err := db.arena.RestoreMedium(img); err != nil {
		return nil, fmt.Errorf("%w: restore: %w", ErrBadSnapshot, err)
	}
	// A snapshot is a power-failure image: run recovery via reattach.
	if err := db.reattach(); err != nil {
		return nil, err
	}
	return db, nil
}

// OpenSnapshotKV loads a key/value store saved with Save: every shard's
// image is restored and recovered as after a power failure. opts supplies
// the machine knobs, while scheme and geometry — and, for a version-2
// snapshot, shard count and batch bound — come from the file; a version-1
// snapshot is one image, one shard.
func OpenSnapshotKV(path string, opts Options) (*KV, error) {
	f, dec, hdr, err := readSnapshotHeader(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	opts.Scheme = hdr.Scheme
	opts.PageSize = hdr.PageSize
	opts.MaxPages = hdr.MaxPages
	opts.Shards = 1
	if hdr.Version >= 2 {
		opts.Shards = hdr.Shards
		opts.MaxBatch = hdr.MaxBatch
	}
	opts.fill()
	imgs := make([][]byte, opts.Shards)
	for i := range imgs {
		if imgs[i], err = readImage(dec, hdr); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	rec := newRecorder(opts)
	eng, err := newShardEngine(opts, rec)
	if err != nil {
		return nil, err
	}
	for i, img := range imgs {
		if err := eng.RestoreShard(i, img); err != nil {
			eng.Close()
			return nil, fmt.Errorf("%w: restore shard %d: %w", ErrBadSnapshot, i, err)
		}
	}
	// The restored images are power-failure images: run per-shard recovery.
	if err := eng.Reopen(); err != nil {
		eng.Close()
		return nil, err
	}
	kv := &KV{eng: eng, opts: opts, rec: rec}
	registerKV(kv)
	return kv, nil
}
