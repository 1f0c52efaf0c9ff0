package lint_test

import (
	"testing"

	"filaments/internal/lint"
	"filaments/internal/lint/linttest"
)

func TestKernelTime(t *testing.T) {
	linttest.Run(t, "testdata/src", "kerneltime", lint.KernelTime)
}

func TestKernelSpawn(t *testing.T) {
	linttest.Run(t, "testdata/src", "kernelspawn", lint.KernelSpawn)
}

func TestHandlerNoBlock(t *testing.T) {
	linttest.Run(t, "testdata/src", "handlernoblock", lint.HandlerNoBlock)
}

func TestMapRange(t *testing.T) {
	linttest.Run(t, "testdata/src", "maprange", lint.MapRange)
}

func TestSharedRange(t *testing.T) {
	linttest.Run(t, "testdata/src", "sharedrange", lint.SharedRange)
}

func TestLoopCapture(t *testing.T) {
	linttest.Run(t, "testdata/src", "loopcapture", lint.LoopCapture)
}

func TestCodecSym(t *testing.T) {
	linttest.Run(t, "testdata/src", "codecsym", lint.CodecSym)
}

func TestBarrierPhase(t *testing.T) {
	linttest.Run(t, "testdata/src", "barrierphase", lint.BarrierPhase)
}

func TestFrameScope(t *testing.T) {
	linttest.Run(t, "testdata/src", "framescope", lint.FrameScope)
}

func TestLockOrder(t *testing.T) {
	linttest.RunProgram(t, "testdata/src", []string{"lockorderdep", "lockorder"}, lint.LockOrder)
}

func TestHotAlloc(t *testing.T) {
	linttest.RunProgram(t, "testdata/src", []string{"hotalloc"}, lint.HotAlloc)
}

func TestHandlerIdem(t *testing.T) {
	linttest.RunProgram(t, "testdata/src", []string{"handleridem"}, lint.HandlerIdem)
}

func TestTagSpace(t *testing.T) {
	linttest.RunProgram(t, "testdata/src", []string{"tagspace"}, lint.TagSpace)
}

func TestStateMach(t *testing.T) {
	linttest.RunProgram(t, "testdata/src", []string{"statemach"}, lint.StateMach)
}

func TestAtomicField(t *testing.T) {
	linttest.RunProgram(t, "testdata/src", []string{"atomicfield"}, lint.AtomicField)
}

// TestRacefix pins down that the full static suite flags the same seeded
// program dfcheck's dynamic prong detects (internal/apps/racer, minus
// its //dflint:allow hatches).
func TestRacefix(t *testing.T) {
	linttest.Run(t, "testdata/src", "racefix", lint.Analyzers()...)
}

// TestNonKernelExempt runs the whole suite over a package outside the
// kernel layer: none of the kernel-gated rules may fire.
func TestNonKernelExempt(t *testing.T) {
	linttest.Run(t, "testdata/src", "nonkernel", lint.Analyzers()...)
}
