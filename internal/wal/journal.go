package wal

import (
	"fmt"

	"fasp/internal/pager"
	"fasp/internal/phase"
)

// Rollback-journal layout in the log region:
//
//	walBase+0:  master magic (shared)
//	walBase+8:  committed chain head — unused by the journal
//	walBase+16: journal entry count (u64; 0 = journal invalid)
//	walBase+32: entries: { pageNo u32, pad u32, original page image }
//
// The journal follows SQLite's rollback protocol mapped onto PM (Figure 1a):
// save the original images and flush ("journal sync"), overwrite the
// database pages in place and flush ("database sync"), then invalidate the
// journal. Recovery from a valid journal restores the originals, rolling
// the torn transaction back.
const journalCountOff = 16
const journalEntriesOff = 32

func (st *Store) journalEntrySize() int64 { return int64(8 + st.cfg.PageSize) }

// commitJournal implements the rollback-journal commit. A transaction that
// dirtied no page journals nothing, as SQLite never journals a read.
func (tx *Txn) commitJournal() error {
	if len(tx.dirtyOrder) == 0 {
		return nil
	}
	st := tx.st
	clock := st.sys.Clock()
	jbase := st.cfg.walBase()

	// 1. Journal the original page images (still intact in PM).
	var err error
	clock.InPhase(phase.LogFlush, func() {
		need := journalEntriesOff + st.journalEntrySize()*int64(len(tx.dirtyOrder))
		if need > walMasterSize+st.cfg.LogBytes {
			err = fmt.Errorf("%w: journal region too small for %d pages", pager.ErrFull, len(tx.dirtyOrder))
			return
		}
		for i, no := range tx.dirtyOrder {
			entry := jbase + journalEntriesOff + st.journalEntrySize()*int64(i)
			st.pm.StoreU32(entry, no)
			orig := st.pageBuf(st.cfg.PageSize)
			st.pm.Load(st.cfg.pageBase(no), orig)
			st.pm.Store(entry+8, orig)
			st.lines.Add(entry, int(st.journalEntrySize())) // an entry's last line is the next one's first
			st.stats.WALBytes += int64(st.cfg.PageSize)
			st.stats.JournaledPages++
		}
		st.lines.Flush(st.pm)
		st.sys.Fence()
		// Validate the journal with one atomic count store.
		st.pm.StoreU64(jbase+journalCountOff, uint64(len(tx.dirtyOrder)))
		st.pm.Persist(jbase+journalCountOff, 8)
	})
	if err != nil {
		return err
	}

	// 2. Overwrite the database pages in place from the cache and flush.
	clock.InPhase(phase.Checkpoint, func() {
		for _, no := range tx.dirtyOrder {
			base := st.cfg.pageBase(no)
			img := st.pageBuf(st.cfg.PageSize)
			st.dram.Load(base, img)
			st.pm.Store(base, img)
			st.pm.Flush(base, st.cfg.PageSize)
		}
		st.sys.Fence()
		// 3. Invalidate the journal.
		st.pm.StoreU64(jbase+journalCountOff, 0)
		st.pm.Persist(jbase+journalCountOff, 8)
	})
	return nil
}

// recoverJournal rolls back a transaction whose journal is still valid.
func (st *Store) recoverJournal() error {
	jbase := st.cfg.walBase()
	count := st.pm.LoadU64(jbase + journalCountOff)
	if count > 0 {
		if journalEntriesOff+st.journalEntrySize()*int64(count) > walMasterSize+st.cfg.LogBytes {
			return fmt.Errorf("%w: journal count %d malformed", pager.ErrCorrupt, count)
		}
		for i := int64(0); i < int64(count); i++ {
			entry := jbase + journalEntriesOff + st.journalEntrySize()*i
			no := st.pm.LoadU32(entry)
			if int(no) >= st.cfg.MaxPages {
				return fmt.Errorf("%w: journal entry %d page %d", pager.ErrCorrupt, i, no)
			}
			img := st.pm.Read(entry+8, st.cfg.PageSize)
			base := st.cfg.pageBase(no)
			st.pm.Store(base, img)
			st.pm.Flush(base, st.cfg.PageSize)
		}
		st.sys.Fence()
		st.pm.StoreU64(jbase+journalCountOff, 0)
		st.pm.Persist(jbase+journalCountOff, 8)
	}
	meta, err := pager.ReadMeta(st.pm, 0)
	if err != nil {
		return err
	}
	st.meta = meta
	st.txid = meta.TxID
	return nil
}
