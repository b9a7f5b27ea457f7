package scheme_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"fasp/internal/btree"
	"fasp/internal/pmem"
	"fasp/internal/scheme"
)

func TestParse(t *testing.T) {
	for _, s := range scheme.All {
		for _, name := range []string{s.String(), strings.ToLower(s.String())} {
			if got, err := scheme.Parse(name); err != nil || got != s {
				t.Errorf("Parse(%q) = %v, %v; want %v", name, got, err, s)
			}
		}
	}
	for _, bad := range []string{"", "lsm", "fast++", "fast plus", "wal "} {
		if _, err := scheme.Parse(bad); !errors.Is(err, scheme.ErrUnknown) {
			t.Errorf("Parse(%q): want ErrUnknown, got %v", bad, err)
		}
	}
}

// TestCreateReattach: every scheme's store names itself by the table,
// and inserts committed before a crash that evicts nothing are there after
// Reattach. NVWAL and WAL keep committed pages in their log until a
// checkpoint, so only their recovery puts the keys back.
func TestCreateReattach(t *testing.T) {
	g := scheme.Geometry{PageSize: 512, MaxPages: 256}
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%03d", i)) }
	val := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i%26)}, 24) }
	for _, s := range scheme.All {
		t.Run(s.String(), func(t *testing.T) {
			sys := pmem.NewSystem(pmem.DefaultLatencies(300, 300))
			st := s.Create(sys, g)
			if st.Name() != s.String() {
				t.Fatalf("created store is %q", st.Name())
			}
			tree := btree.New(st)
			for i := 0; i < 40; i++ {
				if err := tree.Insert(key(i), val(i)); err != nil {
					t.Fatal(err)
				}
			}
			sys.Crash(pmem.EvictNone)
			st2, err := s.Reattach(st.Arena(), g)
			if err != nil {
				t.Fatal(err)
			}
			if st2.Name() != s.String() {
				t.Fatalf("reattached store is %q", st2.Name())
			}
			tree = btree.New(st2)
			for i := 0; i < 40; i++ {
				v, ok, err := tree.Get(key(i))
				if err != nil || !ok || !bytes.Equal(v, val(i)) {
					t.Fatalf("key %d after reattach: %q %v %v", i, v, ok, err)
				}
			}
		})
	}
}
