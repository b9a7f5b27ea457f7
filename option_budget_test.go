package fasp_test

import (
	"reflect"
	"testing"

	"fasp"
	"fasp/internal/server"
	"fasp/internal/shard"
)

// TestOptionBudget pins the configuration surface: the field counts of the
// three option structs a caller fills. A new knob must push an old one
// out, or raise its budget here on purpose.
func TestOptionBudget(t *testing.T) {
	for _, tc := range []struct {
		typ    reflect.Type
		budget int
	}{
		{reflect.TypeOf(fasp.Options{}), 10},
		{reflect.TypeOf(shard.Config{}), 7},
		{reflect.TypeOf(server.Config{}), 11},
	} {
		if n := tc.typ.NumField(); n > tc.budget {
			t.Errorf("%v has %d fields, over its budget of %d", tc.typ, n, tc.budget)
		}
	}
}
