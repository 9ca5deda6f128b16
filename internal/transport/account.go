package transport

import (
	"time"

	"repro/internal/wire"
)

// FrameAccountant receives one callback per message crossing a tapped
// connection. sent reports direction, m is the message itself (so the
// accountant can read kind, volume, and sequence), size its encoded length
// in bytes (wire.Size on transports that never serialize), and codec the
// wall time spent encoding (sent) or decoding (received) the message —
// zero on the in-memory transport, which passes Message values through
// channels without serializing. Called inline on Send/Recv, so
// implementations must be fast, non-blocking, and safe for concurrent use.
//
// The transport is the stack's legitimate wall-clock layer, so the codec
// durations handed to Frame are real elapsed time even under a simulated
// protocol clock.
type FrameAccountant interface {
	Frame(sent bool, m wire.Message, size int, codec time.Duration)
}

// ConnAccounter mints one FrameAccountant per connection, keyed by the
// connection's endpoints. It is the Tap of TCP and Memory: each connection
// they create or accept asks it once, and charges every frame it sends or
// receives to the result. Returning nil leaves that connection untapped.
type ConnAccounter interface {
	AccountConn(local, remote string) FrameAccountant
}

// FrameBufReceiver is implemented by connections that can hand over a raw
// frame body in a pooled buffer without decoding it (tcpConn). The caller
// owns the returned Buf and must Release it. The transport benchmarks and
// leasebench -wire-bench drain frames this way to measure the transport
// alone; a frame received this way is not charged to the connection's tap.
type FrameBufReceiver interface {
	RecvFrameBuf() (*wire.Buf, error)
}

// mintTap asks a for the accountant of one connection; a nil a (no tap)
// yields nil.
func mintTap(a ConnAccounter, local, remote string) FrameAccountant {
	if a == nil {
		return nil
	}
	return a.AccountConn(local, remote)
}
