package experiment

import (
	"io"

	"fasp/internal/obsv"
	"fasp/internal/pmem"
	"fasp/internal/scheme"
)

// AmpRow is one row of the write-amplification experiment.
type AmpRow struct {
	Scheme scheme.Scheme
	// PMBytesPerInsert is the bytes physically written to PM (cache-line
	// write-backs × 64) per inserted record.
	PMBytesPerInsert float64
	// Amplification is PM bytes written per logical byte inserted
	// (record + key + cell header).
	Amplification float64
	// Flushes is clflush instructions per insert.
	Flushes float64
}

// RunWriteAmplification measures physical PM write traffic per logical
// byte inserted. The paper motivates eliminating redundant copies partly by
// PM endurance: every journal/WAL/checkpoint copy is PM wear. Logical bytes
// per insert = 8-byte key + 64-byte value + 4-byte cell header.
func RunWriteAmplification(p Params) ([]AmpRow, error) {
	p.fill()
	const logicalBytes = 8 + 64 + 4
	var rows []AmpRow
	for _, s := range scheme.All {
		e := NewEnv(s, pmem.DefaultLatencies(300, 300), p)
		m, err := RunInserts(e, p.N, 64, 1, p.Seed)
		if err != nil {
			return nil, err
		}
		pmBytes := float64(m.PM.LineWritebacks) * pmem.CacheLineSize / float64(m.N)
		rows = append(rows, AmpRow{
			Scheme:           s,
			PMBytesPerInsert: pmBytes,
			Amplification:    pmBytes / logicalBytes,
			Flushes:          m.FlushesPerInsert(),
		})
	}
	return rows, nil
}

// PrintWriteAmplification renders the write-amplification table.
func PrintWriteAmplification(rows []AmpRow, w io.Writer) {
	t := obsv.NewTable(
		"Write amplification: PM bytes physically written per 76-byte insert (300/300)",
		"scheme", "PM B/insert", "amplification", "clflush/insert")
	for _, r := range rows {
		t.AddRow(r.Scheme.String(), r.PMBytesPerInsert, r.Amplification, r.Flushes)
	}
	t.Render(w)
}
