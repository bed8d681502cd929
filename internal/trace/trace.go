// Package trace models dynamic branch trace records in the style of the
// ATOM-captured DEC Alpha traces used by Kalamatianos & Kaeli (MICRO-31,
// 1998), and provides a compact streaming binary encoding for them.
//
// A trace is a sequence of Records, one per committed control-transfer
// instruction. Non-branch instructions are not recorded individually; each
// Record carries the number of non-branch instructions retired since the
// previous record (Gap), which is sufficient to reconstruct instruction
// counts for Table 1 of the paper.
//
// Traces are stored and streamed in the IBT2 binary format (io.go): a magic
// header, then one delta/varint-encoded record after another. Writer
// encodes through a 64 KiB bufio buffer. Reader decodes out of a 64 KiB
// byte window that it refills and compacts when fewer than one maximal
// record's bytes remain, so the per-record work is varint decoding from a
// slice, not a read call per byte. A Reader is reusable: Reset points it at
// the next stream, and the zero Reader is ready for Reset, which is how a
// server pools Readers across requests. In memory, a generated trace lives
// as columnar Blocks (block.go).
package trace

import "fmt"

// Class identifies the kind of control-transfer instruction, mirroring the
// Alpha AXP classification used in the paper: conditional branches are always
// direct; the four indirect instructions are jmp, jsr, ret and jsr_coroutine,
// all unconditional.
type Class uint8

const (
	// CondDirect is a conditional direct branch (Alpha beq/bne/...).
	CondDirect Class = iota
	// UncondDirect is an unconditional direct branch (Alpha br).
	UncondDirect
	// DirectCall is an unconditional direct subroutine call (Alpha bsr);
	// it pushes its return address on the RAS.
	DirectCall
	// IndirectJmp is an unconditional indirect jump (Alpha jmp), e.g. a
	// switch-statement dispatch or a GOT-based jump.
	IndirectJmp
	// IndirectJsr is an unconditional indirect call (Alpha jsr), e.g. a
	// virtual function call or a call through a function pointer.
	IndirectJsr
	// Return is a subroutine return (Alpha ret); predicted by a RAS and
	// therefore excluded from the indirect-predictor misprediction ratio.
	Return
	// JsrCoroutine is the Alpha jsr_coroutine instruction. The paper found
	// none in its traces; it is modelled for ISA completeness.
	JsrCoroutine

	numClasses = iota
)

var classNames = [numClasses]string{
	"cond", "br", "bsr", "jmp", "jsr", "ret", "jsr_coroutine",
}

// String returns the Alpha-style mnemonic for the class.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Valid reports whether c is one of the defined classes.
func (c Class) Valid() bool { return int(c) < numClasses }

// Indirect reports whether the class computes its target from a register at
// run time (jmp, jsr, ret, jsr_coroutine).
func (c Class) Indirect() bool {
	switch c {
	case IndirectJmp, IndirectJsr, Return, JsrCoroutine:
		return true
	}
	return false
}

// Conditional reports whether the class has a taken/not-taken decision.
func (c Class) Conditional() bool { return c == CondDirect }

// Record is one committed control-transfer instruction.
type Record struct {
	// PC is the address of the branch instruction.
	PC uint64
	// Target is the address control transferred to. For a not-taken
	// conditional branch this is the fall-through address.
	Target uint64
	// Class is the kind of branch.
	Class Class
	// Taken reports the direction; always true for unconditional classes.
	Taken bool
	// MT is the compiler/linker multi-target annotation bit from the
	// paper's Section 5: set for indirect branches with more than one
	// possible target (switch dispatch, pointer-based calls), clear for
	// single-target indirect branches (GOT calls, DLL stubs).
	MT bool
	// Gap is the number of non-branch instructions retired since the
	// previous record.
	Gap uint32
	// Value carries the switch variable value for multi-target indirect
	// jumps that implement switch statements (1-based; 0 = unknown or not
	// applicable). It exists to model the Case Block Table of Kaeli &
	// Emma, which predicts switch targets from the switch value when that
	// value is available at fetch.
	Value uint32
}

// MTIndirect reports whether the record is a multi-target indirect jmp or
// jsr — the class of branches whose prediction accuracy the paper measures.
// Returns are excluded (handled by a RAS), as are single-target branches.
func (r Record) MTIndirect() bool {
	return r.MT && (r.Class == IndirectJmp || r.Class == IndirectJsr)
}

// PredictedStream reports whether the record belongs to the indirect-branch
// stream recorded by PIB path history registers: all indirect jmp and jsr
// instructions (both ST and MT), excluding returns.
func (r Record) PIBStream() bool {
	return r.Class == IndirectJmp || r.Class == IndirectJsr
}

// String formats the record for debugging output.
func (r Record) String() string {
	t := "T"
	if !r.Taken {
		t = "N"
	}
	mt := ""
	if r.MT {
		mt = " MT"
	}
	return fmt.Sprintf("%s pc=%#x tgt=%#x %s%s gap=%d", r.Class, r.PC, r.Target, t, mt, r.Gap)
}
