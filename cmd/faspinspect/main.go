// Command faspinspect prints the physical structure of a saved fasp
// snapshot: store metadata, a page census (types, fill factors, free
// space, fragmentation), B-tree shape, and — when the snapshot holds a SQL
// database — the catalog. Useful for studying how the slotted-page
// machinery lays data out and for debugging recovered images.
//
// Usage:
//
//	faspinspect db.fasp
//	faspinspect -pages db.fasp     # per-page detail
package main

import (
	"flag"
	"fmt"
	"os"

	"fasp"
	"fasp/internal/btree"
	"fasp/internal/fast"
	"fasp/internal/obsv"
	"fasp/internal/slotted"
	"fasp/internal/wal"
)

func main() {
	pages := flag.Bool("pages", false, "print per-page detail")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: faspinspect [-pages] <snapshot>")
		os.Exit(2)
	}
	db, err := fasp.OpenSnapshot(flag.Arg(0), fasp.Options{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "faspinspect: %v\n", err)
		os.Exit(1)
	}
	st := db.RawStore()
	fmt.Printf("snapshot: %s\n", flag.Arg(0))
	fmt.Printf("scheme:   %s\n", st.Name())
	fmt.Printf("pagesize: %d bytes\n", st.PageSize())

	var meta metaView
	switch s := st.(type) {
	case *fast.Store:
		m := s.Meta()
		meta = metaView{m.NPages, m.Root, m.FreeCount, m.TxID}
		fmt.Printf("stats:    %+v\n", s.Stats())
	case *wal.Store:
		m := s.Meta()
		meta = metaView{m.NPages, m.Root, m.FreeCount, m.TxID}
	default:
		fmt.Fprintln(os.Stderr, "faspinspect: unknown store type")
		os.Exit(1)
	}
	fmt.Printf("pages:    %d allocated, %d on free stack\n", meta.npages-1, meta.free)
	fmt.Printf("root:     page %d, last txid %d\n", meta.root, meta.txid)

	census(db, st.PageSize(), meta, *pages)
	treeShape(db)
	catalog(db)
}

type metaView struct {
	npages, root, free uint32
	txid               uint64
}

// census walks every allocated page through a read transaction.
func census(db *fasp.DB, pageSize int, meta metaView, detail bool) {
	st := db.RawStore()
	ptx, err := st.Begin()
	if err != nil {
		fmt.Fprintf(os.Stderr, "faspinspect: %v\n", err)
		return
	}
	defer ptx.Rollback()

	typeCount := map[byte]int{}
	var fillSum, freeSum, cells int
	var leafArea, leafDead int64
	t := obsv.NewTable("", "page", "type", "cells", "content@", "free-list(B)", "live(B)")
	for no := uint32(1); no < meta.npages; no++ {
		p, err := ptx.Page(no)
		if err != nil {
			continue
		}
		typeCount[p.Type()]++
		live := p.LiveBytes()
		fillSum += live
		freeSum += int(p.Header().Free)
		cells += p.NCells()
		if p.Type() == slotted.TypeLeaf {
			area, dead := btree.LeafFrag(p, pageSize)
			leafArea += area
			leafDead += dead
		}
		if detail {
			t.AddRow(no, typeName(p.Type()), p.NCells(), p.Header().Content,
				p.Header().Free, live)
		}
	}
	n := int(meta.npages) - 1
	fmt.Printf("census:   %d leaves, %d interior, %d other\n",
		typeCount[slotted.TypeLeaf], typeCount[slotted.TypeInterior],
		n-typeCount[slotted.TypeLeaf]-typeCount[slotted.TypeInterior])
	if n > 0 {
		fmt.Printf("fill:     %d cells, avg %.1f%% live bytes/page, %.1f free-list B/page\n",
			cells, 100*float64(fillSum)/float64(n*pageSize), float64(freeSum)/float64(n))
	}
	if leafArea > 0 {
		fmt.Printf("frag:     %.1f%% of leaf cell area dead (%d B / %d B) — space an "+
			"insert reclaims by copy-on-write defrag when a page has room only there\n",
			100*float64(leafDead)/float64(leafArea), leafDead, leafArea)
	}
	if detail {
		t.Render(os.Stdout)
	}
}

func typeName(t byte) string {
	switch t {
	case slotted.TypeLeaf:
		return "leaf"
	case slotted.TypeInterior:
		return "interior"
	case slotted.TypeMeta:
		return "meta"
	default:
		return fmt.Sprintf("%#x", t)
	}
}

// treeShape reports depth and record count of the primary tree.
func treeShape(db *fasp.DB) {
	st := db.RawStore()
	tr := btree.New(st)
	tx, err := tr.Begin()
	if err != nil {
		return
	}
	defer tx.Rollback()
	if err := tx.Validate(); err != nil {
		fmt.Printf("tree:     INVALID: %v\n", err)
		return
	}
	count, err := tx.Count()
	if err != nil {
		return
	}
	reach, err := tx.Reachable()
	if err != nil {
		return
	}
	fmt.Printf("root tree: valid, %d records, %d reachable pages (for SQL stores this is the catalog)\n", count, len(reach))
}

// catalog lists tables when the snapshot is a SQL database.
func catalog(db *fasp.DB) {
	names, err := db.Tables()
	if err != nil || len(names) == 0 {
		return
	}
	fmt.Println("catalog:")
	for _, n := range names {
		schema, _ := db.Schema(n)
		rows, err := db.Query("SELECT COUNT(*) FROM " + n)
		cnt := int64(-1)
		if err == nil && len(rows) == 1 {
			cnt = rows[0][0].AsInt()
		}
		fmt.Printf("  %-16s %6d rows   %s\n", n, cnt, schema)
	}
}
