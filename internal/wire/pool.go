package wire

import "sync"

// msgPool recycles decode-side Msg structs so the steady-state receive path
// allocates nothing: Conn.Deliver and Responder.Deliver draw a Msg, decode
// into it (reusing its Args capacity; Data views the datagram), hand it to
// exactly one callback or handler, and return it. The ownership rule this
// buys is strict: a pooled Msg is valid only for the duration of the
// callback that receives it — retain with Msg.Clone or copy the fields you
// need. putMsg drops Data, so the pool never holds a datagram.
var msgPool = sync.Pool{New: func() any { return new(Msg) }}

func getMsg() *Msg { return msgPool.Get().(*Msg) }

func putMsg(m *Msg) {
	m.Reset()
	msgPool.Put(m)
}
