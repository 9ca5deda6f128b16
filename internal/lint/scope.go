package lint

import "strings"

// Scoped reports whether the named analyzer applies to pkgPath. Each
// analyzer encodes a discipline that holds in specific layers of the stack:
//
//   - clockcheck: every package that does lease mathematics or event
//     timestamping must use the injected clock.Clock so simulated and live
//     timelines agree. internal/clock is the one wholesale-exempt layer;
//     the transport is checked too since the batcher landed, with its few
//     legitimate wall-clock sites (codec timing, socket deadlines, injected
//     wire latency) annotated //lint:allow.
//   - lockorder: the shard locking order lives in the server and the proxy
//     (the two lease-granting roles).
//   - wiresym: encode/decode symmetry is a property of internal/wire.
//   - metricreg: metric naming and nil-guard hygiene apply repo-wide.
//   - hotalloc: the //lint:hotpath roots live in the wire codec and the
//     transport batcher; findings land where the allocation is, so both
//     layers are in scope.
//   - lockflow: like lockorder, the shard-mutex discipline is a property of
//     the two lease-granting roles, but violations can be *reached* through
//     helpers anywhere; findings are reported at the call site under the
//     lock, which is in server or proxy.
//   - spawnjoin: shutdown wiring applies to every package that spawns
//     long-lived goroutines in the live stack.
//   - snapshotcopy: the snapshot roots are core.Table.Snapshot and the
//     StateSnapshot methods on server, client, proxy; internal/state holds
//     the snapshot types they fill.
func Scoped(analyzer, pkgPath string) bool {
	if !strings.HasPrefix(pkgPath, "repro/") && pkgPath != "repro" {
		return false
	}
	sub, isInternal := strings.CutPrefix(pkgPath, "repro/internal/")
	top := sub
	if i := strings.Index(sub, "/"); i >= 0 {
		top = sub[:i]
	}
	in := func(names ...string) bool {
		if !isInternal {
			return false
		}
		for _, n := range names {
			if top == n {
				return true
			}
		}
		return false
	}
	switch analyzer {
	case "clockcheck":
		return in("core", "server", "client", "proxy", "sim", "audit", "loadtl", "obs", "metrics", "health", "cost", "transport", "state")
	case "lockorder":
		return in("server", "proxy")
	case "wiresym":
		return in("wire")
	case "metricreg":
		return true
	case "hotalloc":
		return in("wire", "transport")
	case "lockflow":
		return in("server", "proxy")
	case "spawnjoin":
		return in("server", "client", "proxy", "obs", "loadtl", "audit", "health", "cost", "transport", "state")
	case "snapshotcopy":
		return in("core", "server", "client", "proxy", "state")
	default:
		return false
	}
}
