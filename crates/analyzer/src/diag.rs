//! Structured diagnostics: lint codes, severities, op-index spans, and
//! both rustc-style and machine-readable (JSON) rendering.
//!
//! Every pass reports through a [`Report`]; nothing in the analyzer
//! formats errors as bare strings. A diagnostic is anchored to the
//! offending op index where one exists, so a rejected kernel always names
//! the instruction that broke the invariant.

use brick_codegen::VectorKernel;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// Advisory: the kernel is well-formed but sub-optimal or suspicious.
    Warning,
    /// The kernel violates an invariant and must not be executed.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// Every lint the analyzer can raise, with a stable `BLxxx` code, plus
/// the brick-safe proof obligations (`BSxxx`) the VM's native-backend
/// safety prover discharges over compiled plans.
///
/// `BL0xx` are structural errors (verifier pass), `BL02x` semantic errors
/// (footprint pass), `BL1xx` warnings (dead code, reuse, liveness).
/// `BSxxx` codes are raised by `brick_vm`'s compile-time safety pass over
/// lowered `Plan`/`RowProg` programs; each names one precondition the
/// `unsafe` SIMD row backends rely on (see DESIGN.md §13 for the
/// obligation catalog). Any `BSxxx` finding means the plan must not be
/// dispatched to a native backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LintCode {
    /// Block x extent disagrees with the vector width.
    WidthMismatch,
    /// A register id is outside the kernel's declared register count.
    RegOutOfRange,
    /// A register is read before any op wrote it.
    UseBeforeDef,
    /// A load's lane range escapes `[0, width)` or is empty.
    LaneRange,
    /// A shift distance is zero or at least the vector width.
    ShiftInvalid,
    /// A load's `rx` selects a block beyond the ±x neighbours.
    RxOutsideAdjacency,
    /// A load's `ry`/`rz` row coordinate escapes the home block by more
    /// than one neighbouring block.
    RowOutsideAdjacency,
    /// A store row lies outside the home block.
    StoreOutsideBlock,
    /// The same home row is stored more than once.
    DuplicateStore,
    /// The kernel does not store every row of its home block.
    IncompleteStores,
    /// A coefficient index is outside the coefficient table.
    CoeffIndexOutOfRange,
    /// An output lane reads a point the declared stencil does not, or
    /// misses one it does.
    FootprintMismatch,
    /// An output lane reads the right point with the wrong weight.
    CoeffValueMismatch,
    /// Output lanes/rows disagree about the stencil they compute
    /// (self-consistency check when no expected stencil is supplied).
    InconsistentFootprint,
    /// A register is written but the value is never read.
    DeadDef,
    /// The same input row is loaded more than once.
    DuplicateLoad,
    /// A shift recomputes a value still held in a live register.
    RedundantShift,
    /// A coefficient-table entry is never referenced by any op.
    UnusedCoefficient,
    /// The kernel declares more registers than are ever simultaneously
    /// live.
    OverProvisionedRegs,
    /// brick-safe: a tap row's resolved address range can escape its
    /// operand slab for some block of some grid.
    UnsafeTapEscapesSlab,
    /// brick-safe: a brick tap names a neighbour outside the 27-entry
    /// adjacency row.
    UnsafeTapNeighborInvalid,
    /// brick-safe: a split tap's seam shift distance is zero or at least
    /// the vector width.
    UnsafeSeamInvalid,
    /// brick-safe: a tape op (or fast-row program) references a tap slot
    /// outside the kernel's tap table or of the wrong kind, or the tap
    /// table's declared grid/brick counts do not match the table the
    /// executors resolve.
    UnsafeTapIndexInvalid,
    /// brick-safe: a row program's value stack underflows, overflows the
    /// fixed evaluator stack, or its declared depth disagrees with the
    /// tape.
    UnsafeStackDiscipline,
    /// brick-safe: an output row offset escapes the block volume, is not
    /// row-aligned, or disagrees with its declared row coordinates.
    UnsafeStoreEscapesBlock,
    /// brick-safe: two row programs write overlapping output rows, so
    /// streaming-store ordering is not discharged by disjointness.
    UnsafeStoreOverlap,
    /// brick-safe: the plan's vector width is not a whole number of SIMD
    /// lanes for every native backend, or a fused plan's block x extent
    /// disagrees with the width.
    UnsafeLaneGeometry,
    /// brick-safe: a row program's fast-row form diverges from its tape
    /// or reads a window or shifted scratch row.
    UnsafeFastRowDivergent,
    /// brick-safe: a scratch-row program writes, or a scratch tap reads, a
    /// slot past the per-worker scratch buffer.
    UnsafeScratchSlot,
    /// brick-safe: a scratch row is read before any program of the block
    /// has written it.
    UnsafeScratchUnwritten,
    /// brick-safe: a shifted scratch read reaches past its two rows
    /// (`dx = 0` or `|dx| ≥ w`), a window fill's lanes overhang its
    /// row, or a padded read's shift leaves its row's apron (`|dx| > PAD`).
    UnsafeScratchReach,
    /// brick-safe: a pad fill does not copy one direct grid row plus the
    /// `apron ≤ PAD` x-nearest lanes of its two neighbour rows, or a
    /// padded read shifts further than the apron its row's fill wrote.
    UnsafePadFill,
}

impl LintCode {
    /// Stable diagnostic code, e.g. `"BL007"`.
    pub fn code(&self) -> &'static str {
        match self {
            LintCode::WidthMismatch => "BL001",
            LintCode::RegOutOfRange => "BL002",
            LintCode::UseBeforeDef => "BL003",
            LintCode::LaneRange => "BL004",
            LintCode::ShiftInvalid => "BL005",
            LintCode::RxOutsideAdjacency => "BL006",
            LintCode::RowOutsideAdjacency => "BL007",
            LintCode::StoreOutsideBlock => "BL008",
            LintCode::DuplicateStore => "BL009",
            LintCode::IncompleteStores => "BL010",
            LintCode::CoeffIndexOutOfRange => "BL011",
            LintCode::FootprintMismatch => "BL020",
            LintCode::CoeffValueMismatch => "BL021",
            LintCode::InconsistentFootprint => "BL022",
            LintCode::DeadDef => "BL100",
            LintCode::DuplicateLoad => "BL101",
            LintCode::RedundantShift => "BL102",
            LintCode::UnusedCoefficient => "BL103",
            LintCode::OverProvisionedRegs => "BL104",
            // BL110/BL111 priced register demand against per-architecture
            // budgets, which the simulator's compiler models now own; the
            // codes are never reused.
            LintCode::UnsafeTapEscapesSlab => "BS001",
            LintCode::UnsafeTapNeighborInvalid => "BS002",
            LintCode::UnsafeSeamInvalid => "BS003",
            LintCode::UnsafeTapIndexInvalid => "BS004",
            LintCode::UnsafeStackDiscipline => "BS005",
            LintCode::UnsafeStoreEscapesBlock => "BS006",
            LintCode::UnsafeStoreOverlap => "BS007",
            LintCode::UnsafeLaneGeometry => "BS008",
            // BS009/BS010 covered the retired register-file executor;
            // the codes are never reused.
            LintCode::UnsafeFastRowDivergent => "BS011",
            LintCode::UnsafeScratchSlot => "BS012",
            LintCode::UnsafeScratchUnwritten => "BS013",
            LintCode::UnsafeScratchReach => "BS014",
            LintCode::UnsafePadFill => "BS015",
        }
    }

    /// Severity class of the lint.
    pub fn severity(&self) -> Severity {
        match self {
            LintCode::WidthMismatch
            | LintCode::RegOutOfRange
            | LintCode::UseBeforeDef
            | LintCode::LaneRange
            | LintCode::ShiftInvalid
            | LintCode::RxOutsideAdjacency
            | LintCode::RowOutsideAdjacency
            | LintCode::StoreOutsideBlock
            | LintCode::DuplicateStore
            | LintCode::IncompleteStores
            | LintCode::CoeffIndexOutOfRange
            | LintCode::FootprintMismatch
            | LintCode::CoeffValueMismatch
            | LintCode::InconsistentFootprint
            | LintCode::UnsafeTapEscapesSlab
            | LintCode::UnsafeTapNeighborInvalid
            | LintCode::UnsafeSeamInvalid
            | LintCode::UnsafeTapIndexInvalid
            | LintCode::UnsafeStackDiscipline
            | LintCode::UnsafeStoreEscapesBlock
            | LintCode::UnsafeStoreOverlap
            | LintCode::UnsafeLaneGeometry
            | LintCode::UnsafeFastRowDivergent
            | LintCode::UnsafeScratchSlot
            | LintCode::UnsafeScratchUnwritten
            | LintCode::UnsafeScratchReach
            | LintCode::UnsafePadFill => Severity::Error,
            LintCode::DeadDef
            | LintCode::DuplicateLoad
            | LintCode::RedundantShift
            | LintCode::UnusedCoefficient
            | LintCode::OverProvisionedRegs => Severity::Warning,
        }
    }
}

/// One finding: a lint code anchored to an op index with a message and an
/// optional help line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Which lint fired.
    pub code: LintCode,
    /// Index of the offending op in the kernel's instruction stream, if
    /// the finding is anchored to one.
    pub op: Option<usize>,
    /// Human-readable statement of the violation.
    pub message: String,
    /// Optional remedy or context line.
    pub help: Option<String>,
}

impl Diagnostic {
    /// A diagnostic anchored to op `op`.
    pub fn at(code: LintCode, op: usize, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            op: Some(op),
            message: message.into(),
            help: None,
        }
    }

    /// A kernel-level diagnostic with no op anchor.
    pub fn global(code: LintCode, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            op: None,
            message: message.into(),
            help: None,
        }
    }

    /// Attach a help line.
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {}",
            self.code.severity(),
            self.code.code(),
            self.message
        )?;
        if let Some(op) = self.op {
            write!(f, " (op {op})")?;
        }
        Ok(())
    }
}

/// All findings for one kernel, across all passes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Name of the analyzed kernel.
    pub kernel: String,
    /// Findings in pass order, errors and warnings interleaved.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report for `kernel`.
    pub fn new(kernel: impl Into<String>) -> Self {
        Report {
            kernel: kernel.into(),
            diagnostics: Vec::new(),
        }
    }

    /// Record a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.code.severity() == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics.len() - self.error_count()
    }

    /// True if any finding is an error.
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// Findings carrying a given code.
    pub fn with_code(&self, code: LintCode) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.code == code).collect()
    }

    /// Rustc-style rendering. When the kernel is supplied, each anchored
    /// diagnostic quotes the offending instruction.
    pub fn render(&self, kernel: Option<&VectorKernel>) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(
                out,
                "{}[{}]: {}",
                d.code.severity(),
                d.code.code(),
                d.message
            );
            match (d.op, kernel) {
                (Some(op), Some(k)) => {
                    let text = k
                        .ops
                        .get(op)
                        .map(|o| format!("{o:?}"))
                        .unwrap_or_else(|| "<op index out of range>".into());
                    let _ = writeln!(out, "  --> {}[op {op}]: {text}", self.kernel);
                }
                (Some(op), None) => {
                    let _ = writeln!(out, "  --> {}[op {op}]", self.kernel);
                }
                (None, _) => {
                    let _ = writeln!(out, "  --> {}", self.kernel);
                }
            }
            if let Some(h) = &d.help {
                let _ = writeln!(out, "  = help: {h}");
            }
        }
        let _ = write!(
            out,
            "{}: {} error(s), {} warning(s)",
            self.kernel,
            self.error_count(),
            self.warning_count()
        );
        out
    }

    /// Machine-readable JSON rendering.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("report serializes")
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: ", self.kernel)?;
        let mut first = true;
        for d in &self.diagnostics {
            if !first {
                f.write_str("; ")?;
            }
            first = false;
            write!(f, "{d}")?;
        }
        if first {
            f.write_str("clean")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severities_partition_the_codes() {
        for code in [
            LintCode::UseBeforeDef,
            LintCode::FootprintMismatch,
            LintCode::RowOutsideAdjacency,
        ] {
            assert_eq!(code.severity(), Severity::Error);
        }
        for code in [
            LintCode::DeadDef,
            LintCode::DuplicateLoad,
            LintCode::OverProvisionedRegs,
        ] {
            assert_eq!(code.severity(), Severity::Warning);
        }
    }

    #[test]
    fn report_counts_and_render() {
        let mut r = Report::new("k");
        r.push(Diagnostic::at(LintCode::UseBeforeDef, 3, "r2 read before write").with_help("x"));
        r.push(Diagnostic::global(
            LintCode::DuplicateLoad,
            "row loaded twice",
        ));
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        assert!(r.has_errors());
        let text = r.render(None);
        assert!(text.contains("error[BL003]"));
        assert!(text.contains("op 3"));
        assert!(text.contains("= help: x"));
        assert!(text.contains("1 error(s), 1 warning(s)"));
    }

    #[test]
    fn json_roundtrip() {
        let mut r = Report::new("k");
        r.push(Diagnostic::at(
            LintCode::CoeffValueMismatch,
            7,
            "bad weight",
        ));
        let v = serde_json::parse(&r.to_json()).unwrap();
        let back: Report = serde_json::from_value(&v).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn codes_are_unique() {
        let all = [
            LintCode::WidthMismatch,
            LintCode::RegOutOfRange,
            LintCode::UseBeforeDef,
            LintCode::LaneRange,
            LintCode::ShiftInvalid,
            LintCode::RxOutsideAdjacency,
            LintCode::RowOutsideAdjacency,
            LintCode::StoreOutsideBlock,
            LintCode::DuplicateStore,
            LintCode::IncompleteStores,
            LintCode::CoeffIndexOutOfRange,
            LintCode::FootprintMismatch,
            LintCode::CoeffValueMismatch,
            LintCode::InconsistentFootprint,
            LintCode::DeadDef,
            LintCode::DuplicateLoad,
            LintCode::RedundantShift,
            LintCode::UnusedCoefficient,
            LintCode::OverProvisionedRegs,
            LintCode::UnsafeTapEscapesSlab,
            LintCode::UnsafeTapNeighborInvalid,
            LintCode::UnsafeSeamInvalid,
            LintCode::UnsafeTapIndexInvalid,
            LintCode::UnsafeStackDiscipline,
            LintCode::UnsafeStoreEscapesBlock,
            LintCode::UnsafeStoreOverlap,
            LintCode::UnsafeLaneGeometry,
            LintCode::UnsafeFastRowDivergent,
            LintCode::UnsafeScratchSlot,
            LintCode::UnsafeScratchUnwritten,
            LintCode::UnsafeScratchReach,
            LintCode::UnsafePadFill,
        ];
        let mut codes: Vec<&str> = all.iter().map(|c| c.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), all.len());
    }
}
