package hotpath_fixture

import (
	"fmt"
	"time"
)

type msg struct{ id uint64 }

// serve does one allocation-heavy op per call; every line is a pattern the
// analyzer knows.
//
//edmlint:hotpath
func serve(id uint64, payload []byte) *msg {
	tag := fmt.Sprintf("op-%d", id) // want "fmt.Sprintf allocates per op"
	_ = tag
	index := make(map[uint64]bool) // want "make(map) without size hint"
	_ = index
	buf := make([]byte, 0) // want "make([]T, 0) without capacity"
	_ = buf
	copyOf := append([]byte(nil), payload...) // want "append([]T(nil), ...) copies per op"
	_ = copyOf
	t := time.NewTimer(time.Second) // want "time.NewTimer allocates a timer per op"
	t.Reset(time.Millisecond)       // want "(*time.Timer).Reset re-queues a runtime timer per op"
	t.Stop()                        // want "(*time.Timer).Stop re-queues a runtime timer per op"
	return &msg{id: id}             // want "composite literal escapes"
}
