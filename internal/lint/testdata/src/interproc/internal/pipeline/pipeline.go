// Package pipeline is the fixture's policed concurrency caller. sendguard
// reports only the sends in a policed package's own bodies, so the calls
// into the unpoliced helpers below are negative controls.
package pipeline

import (
	"context"

	"fixture/internal/helpers"
)

// LaunderedDetach has a ctx parameter yet calls a helper that builds a
// root context internally — the context drop is laundered one call deep.
func LaunderedDetach(ctx context.Context) context.Context {
	return helpers.Detach()
}

// LaunderedSpawn spawns a goroutine through a helper that no context can
// reach.
func LaunderedSpawn(fn func()) {
	helpers.Spin(fn)
}

// SanitizedSpawn passes ctx into the helper, whose goroutine captures
// it; the spawn is cancellable and must not be reported.
func SanitizedSpawn(ctx context.Context, fn func()) {
	helpers.SpawnCtx(ctx, fn)
}

// LaunderedSend hands its channel to helpers that perform a bare send,
// one and two frames down; neither call is a finding.
func LaunderedSend(ch chan<- int) {
	helpers.Push(ch, 1)
	helpers.Relay(ch)
}

// SanitizedSend uses the helper whose send races ctx.Done in a select;
// no finding may appear here.
func SanitizedSend(ctx context.Context, ch chan<- int) {
	helpers.PushSafe(ctx, ch, 2)
}
