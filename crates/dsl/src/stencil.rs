//! Normalised stencil form and coefficient binding.
//!
//! The DSL expression tree is lowered into a canonical *tap list*: one
//! entry per distinct input offset, each with a linear coefficient
//! expression (`scale·symbol + … + constant`). Every downstream consumer —
//! the scalar reference executor, the tiled array kernels and the vector
//! code generator — works from this normal form.

use std::collections::BTreeMap;
use std::fmt;

use crate::expr::{ConstRef, Expr, GridRef};

/// A constant 3-D offset from the output point; `[dx, dy, dz]` with `dx`
/// the contiguous (fastest-varying) dimension.
pub type Offset = [i32; 3];

/// Errors produced while normalising a DSL expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StencilError {
    /// A product of two sub-expressions that both contain grid accesses —
    /// the stencil would not be linear.
    NonLinear(String),
    /// Accesses to more than one input grid in a single stencil.
    MultipleInputGrids(String, String),
    /// The expression contains no grid accesses at all.
    NoAccesses,
    /// A coefficient symbol had no bound value at evaluation time.
    UnboundCoefficient(String),
}

impl fmt::Display for StencilError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StencilError::NonLinear(e) => {
                write!(f, "stencil expression is not linear in grid accesses: {e}")
            }
            StencilError::MultipleInputGrids(a, b) => {
                write!(f, "stencil reads more than one input grid: {a} and {b}")
            }
            StencilError::NoAccesses => write!(f, "stencil expression reads no grid"),
            StencilError::UnboundCoefficient(name) => {
                write!(f, "coefficient {name} has no bound value")
            }
        }
    }
}

impl std::error::Error for StencilError {}

/// A linear combination of coefficient symbols plus a numeric constant:
/// the weight attached to one tap.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LinCoeff {
    /// Numeric part of the weight.
    pub constant: f64,
    /// `symbol -> scale` terms; kept sorted for deterministic iteration.
    pub terms: BTreeMap<ConstRef, f64>,
}

impl LinCoeff {
    fn lit(v: f64) -> Self {
        LinCoeff {
            constant: v,
            terms: BTreeMap::new(),
        }
    }

    fn sym(c: ConstRef) -> Self {
        let mut terms = BTreeMap::new();
        terms.insert(c, 1.0);
        LinCoeff {
            constant: 0.0,
            terms,
        }
    }

    fn add(&mut self, other: &LinCoeff, sign: f64) {
        self.constant += sign * other.constant;
        for (k, v) in &other.terms {
            *self.terms.entry(k.clone()).or_insert(0.0) += sign * v;
        }
        self.terms.retain(|_, v| *v != 0.0);
    }

    fn mul(&self, other: &LinCoeff) -> Result<LinCoeff, StencilError> {
        // Linear-coefficient algebra only supports products where at least
        // one side is a pure number; products of two symbols never appear
        // in the paper's stencils and are rejected for clarity.
        if self.terms.is_empty() {
            let mut out = other.clone();
            out.scale(self.constant);
            Ok(out)
        } else if other.terms.is_empty() {
            let mut out = self.clone();
            out.scale(other.constant);
            Ok(out)
        } else {
            Err(StencilError::NonLinear(
                "product of two symbolic coefficients".into(),
            ))
        }
    }

    fn scale(&mut self, s: f64) {
        self.constant *= s;
        for v in self.terms.values_mut() {
            *v *= s;
        }
        self.terms.retain(|_, v| *v != 0.0);
    }

    /// Evaluate the weight under the given coefficient bindings.
    pub fn eval(&self, bindings: &CoeffBindings) -> Result<f64, StencilError> {
        let mut acc = self.constant;
        for (sym, scale) in &self.terms {
            let v = bindings
                .get(sym.name())
                .ok_or_else(|| StencilError::UnboundCoefficient(sym.name().to_string()))?;
            acc += scale * v;
        }
        Ok(acc)
    }

    /// The single coefficient symbol, if the weight is exactly `1·symbol`.
    pub fn single_symbol(&self) -> Option<&ConstRef> {
        if self.constant == 0.0 && self.terms.len() == 1 {
            let (sym, scale) = self.terms.iter().next().unwrap();
            if *scale == 1.0 {
                return Some(sym);
            }
        }
        None
    }
}

impl fmt::Display for LinCoeff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (sym, scale) in &self.terms {
            if !first {
                f.write_str(" + ")?;
            }
            first = false;
            if *scale == 1.0 {
                write!(f, "{sym}")?;
            } else {
                write!(f, "{scale}*{sym}")?;
            }
        }
        if self.constant != 0.0 || first {
            if !first {
                f.write_str(" + ")?;
            }
            write!(f, "{}", self.constant)?;
        }
        Ok(())
    }
}

/// One tap of the normalised stencil: a weighted read at a fixed offset.
#[derive(Debug, Clone, PartialEq)]
pub struct Tap {
    /// Offset from the output point, `[dx, dy, dz]`.
    pub offset: Offset,
    /// Weight of this tap.
    pub coeff: LinCoeff,
}

/// Numeric values for coefficient symbols.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoeffBindings {
    values: BTreeMap<String, f64>,
}

impl CoeffBindings {
    /// Empty binding set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind `name` to `value`, replacing any previous binding.
    pub fn bind(mut self, name: impl Into<String>, value: f64) -> Self {
        self.values.insert(name.into(), value);
        self
    }

    /// Bind in place.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Look up a bound value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Iterate over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.values.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Number of bound symbols.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no symbols are bound.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// A normalised stencil: `output(i,j,k) = Σ taps coeff·input(i+dx, j+dy, k+dz)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Stencil {
    output: GridRef,
    input: GridRef,
    taps: Vec<Tap>,
    name: String,
}

impl Stencil {
    /// Normalise `expr` into a stencil writing grid `output`.
    ///
    /// Fails if the expression is non-linear in grid accesses, reads more
    /// than one grid, or reads no grid at all. Taps at the same offset are
    /// merged; taps whose weight is identically zero are dropped.
    pub fn assign(output: impl Into<String>, expr: Expr) -> Result<Self, StencilError> {
        let mut acc: BTreeMap<Offset, LinCoeff> = BTreeMap::new();
        let mut input: Option<GridRef> = None;
        Self::collect(&expr, &LinCoeff::lit(1.0), &mut acc, &mut input)?;
        let input = input.ok_or(StencilError::NoAccesses)?;
        let taps: Vec<Tap> = acc
            .into_iter()
            .filter(|(_, c)| c.constant != 0.0 || !c.terms.is_empty())
            .map(|(offset, coeff)| Tap { offset, coeff })
            .collect();
        if taps.is_empty() {
            return Err(StencilError::NoAccesses);
        }
        let output = output.into();
        Ok(Stencil {
            name: format!("{}pt", taps.len()),
            output: GridRef::new(output),
            input,
            taps,
        })
    }

    fn collect(
        expr: &Expr,
        weight: &LinCoeff,
        acc: &mut BTreeMap<Offset, LinCoeff>,
        input: &mut Option<GridRef>,
    ) -> Result<(), StencilError> {
        match expr {
            Expr::Access { grid, offset } => {
                match input {
                    Some(g) if g != grid => {
                        return Err(StencilError::MultipleInputGrids(
                            g.name().to_string(),
                            grid.name().to_string(),
                        ))
                    }
                    Some(_) => {}
                    None => *input = Some(grid.clone()),
                }
                acc.entry(*offset).or_default().add(weight, 1.0);
                Ok(())
            }
            Expr::Coeff(_) | Expr::Lit(_) => Err(StencilError::NonLinear(format!(
                "bare coefficient term {expr} added to the stencil (every \
                 term must multiply a grid access)"
            ))),
            Expr::Add(a, b) => {
                Self::collect(a, weight, acc, input)?;
                Self::collect(b, weight, acc, input)
            }
            Expr::Sub(a, b) => {
                Self::collect(a, weight, acc, input)?;
                let mut neg = weight.clone();
                neg.scale(-1.0);
                Self::collect(b, &neg, acc, input)
            }
            Expr::Neg(a) => {
                let mut neg = weight.clone();
                neg.scale(-1.0);
                Self::collect(a, &neg, acc, input)
            }
            Expr::Mul(a, b) => {
                let (coeff_side, access_side) = match (a.is_coefficient(), b.is_coefficient()) {
                    (true, false) => (a, b),
                    (false, true) => (b, a),
                    (true, true) => {
                        return Err(StencilError::NonLinear(format!(
                            "coefficient-only product {expr} outside an access"
                        )))
                    }
                    (false, false) => {
                        return Err(StencilError::NonLinear(format!(
                            "product of two grid accesses in {expr}"
                        )))
                    }
                };
                let c = Self::eval_coeff(coeff_side)?;
                let w = weight.mul(&c)?;
                Self::collect(access_side, &w, acc, input)
            }
        }
    }

    fn eval_coeff(expr: &Expr) -> Result<LinCoeff, StencilError> {
        match expr {
            Expr::Coeff(c) => Ok(LinCoeff::sym(c.clone())),
            Expr::Lit(v) => Ok(LinCoeff::lit(*v)),
            Expr::Add(a, b) => {
                let mut l = Self::eval_coeff(a)?;
                l.add(&Self::eval_coeff(b)?, 1.0);
                Ok(l)
            }
            Expr::Sub(a, b) => {
                let mut l = Self::eval_coeff(a)?;
                l.add(&Self::eval_coeff(b)?, -1.0);
                Ok(l)
            }
            Expr::Neg(a) => {
                let mut l = Self::eval_coeff(a)?;
                l.scale(-1.0);
                Ok(l)
            }
            Expr::Mul(a, b) => Self::eval_coeff(a)?.mul(&Self::eval_coeff(b)?),
            Expr::Access { .. } => Err(StencilError::NonLinear(
                "grid access inside a coefficient expression".into(),
            )),
        }
    }

    /// Construct directly from a tap list (used by the shape generators).
    pub fn from_taps(
        name: impl Into<String>,
        output: impl Into<String>,
        input: impl Into<String>,
        taps: Vec<Tap>,
    ) -> Self {
        Stencil {
            name: name.into(),
            output: GridRef::new(output),
            input: GridRef::new(input),
            taps,
        }
    }

    /// Display name of the stencil.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The grid written by the stencil.
    pub fn output(&self) -> &GridRef {
        &self.output
    }

    /// The grid read by the stencil.
    pub fn input(&self) -> &GridRef {
        &self.input
    }

    /// The normalised tap list, sorted by offset.
    pub fn taps(&self) -> &[Tap] {
        &self.taps
    }

    /// Number of points (taps).
    pub fn points(&self) -> usize {
        self.taps.len()
    }

    /// Stencil radius: the maximum `|offset|` component over all taps.
    pub fn radius(&self) -> i32 {
        self.taps
            .iter()
            .flat_map(|t| t.offset.iter().map(|o| o.abs()))
            .max()
            .unwrap_or(0)
    }

    /// Per-axis reach `[rx, ry, rz]`: the maximum `|offset|` per dimension.
    pub fn reach(&self) -> [i32; 3] {
        let mut r = [0; 3];
        for t in &self.taps {
            for (rd, o) in r.iter_mut().zip(&t.offset) {
                *rd = (*rd).max(o.abs());
            }
        }
        r
    }

    /// Number of distinct coefficient classes.
    ///
    /// Taps whose weights are the identical linear form share a class (a
    /// 7-point star has 2: the centre and the six faces). This matches the
    /// paper's "unique coefficients" column in Table 2.
    pub fn coefficient_classes(&self) -> usize {
        let mut classes: Vec<&LinCoeff> = Vec::new();
        for t in &self.taps {
            if !classes.iter().any(|c| **c == t.coeff) {
                classes.push(&t.coeff);
            }
        }
        classes.len()
    }

    /// All distinct coefficient symbols appearing in the weights, sorted.
    pub fn symbols(&self) -> Vec<ConstRef> {
        let mut out: Vec<ConstRef> = Vec::new();
        for t in &self.taps {
            for sym in t.coeff.terms.keys() {
                if !out.contains(sym) {
                    out.push(sym.clone());
                }
            }
        }
        out.sort();
        out
    }

    /// Resolve every tap weight to a number under `bindings`.
    pub fn resolve(&self, bindings: &CoeffBindings) -> Result<Vec<(Offset, f64)>, StencilError> {
        self.taps
            .iter()
            .map(|t| Ok((t.offset, t.coeff.eval(bindings)?)))
            .collect()
    }

    /// Default bindings: symbol `s_n` gets a deterministic smooth value so
    /// examples and tests have well-conditioned weights out of the box.
    pub fn default_bindings(&self) -> CoeffBindings {
        let syms = self.symbols();
        let n = syms.len().max(1) as f64;
        let mut b = CoeffBindings::new();
        for (idx, sym) in syms.iter().enumerate() {
            // Descending magnitudes, sum of magnitudes bounded by ~1.36
            // (harmonic-like) so repeated application stays stable.
            b.set(sym.name(), 0.5 / (n * (idx as f64 + 1.0)));
        }
        b
    }
}

impl fmt::Display for Stencil {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}(i, j, k) = sum of {} taps from {}:",
            self.output,
            self.taps.len(),
            self.input
        )?;
        for t in &self.taps {
            writeln!(
                f,
                "  [{:+}, {:+}, {:+}] * ({})",
                t.offset[0], t.offset[1], t.offset[2], t.coeff
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{ConstRef, GridRef};

    fn star7() -> Stencil {
        let g = GridRef::new("in");
        let a0 = ConstRef::new("a0");
        let a1 = ConstRef::new("a1");
        let e = a0 * g.center()
            + a1.clone() * g.offset(1, 0, 0)
            + a1.clone() * g.offset(-1, 0, 0)
            + a1.clone() * g.offset(0, 1, 0)
            + a1.clone() * g.offset(0, -1, 0)
            + a1.clone() * g.offset(0, 0, 1)
            + a1.clone() * g.offset(0, 0, -1);
        Stencil::assign("out", e).unwrap()
    }

    #[test]
    fn star7_normalises_to_7_taps_2_classes() {
        let s = star7();
        assert_eq!(s.points(), 7);
        assert_eq!(s.coefficient_classes(), 2);
        assert_eq!(s.radius(), 1);
        assert_eq!(s.reach(), [1, 1, 1]);
    }

    #[test]
    fn duplicate_offsets_merge() {
        let g = GridRef::new("in");
        let e = g.center() + g.center() + 2.0 * g.offset(1, 0, 0);
        let s = Stencil::assign("out", e).unwrap();
        assert_eq!(s.points(), 2);
        let taps = s.resolve(&CoeffBindings::new()).unwrap();
        assert_eq!(taps, vec![([0, 0, 0], 2.0), ([1, 0, 0], 2.0)]);
    }

    #[test]
    fn subtraction_negates_weight() {
        let g = GridRef::new("in");
        let e = g.offset(1, 0, 0) - g.offset(-1, 0, 0);
        let s = Stencil::assign("out", e).unwrap();
        let taps = s.resolve(&CoeffBindings::new()).unwrap();
        assert_eq!(taps, vec![([-1, 0, 0], -1.0), ([1, 0, 0], 1.0)]);
    }

    #[test]
    fn cancelling_taps_are_dropped() {
        let g = GridRef::new("in");
        let e = g.offset(2, 0, 0) - g.offset(2, 0, 0) + g.center();
        let s = Stencil::assign("out", e).unwrap();
        assert_eq!(s.points(), 1);
        assert_eq!(s.radius(), 0);
    }

    #[test]
    fn nonlinear_product_rejected() {
        let g = GridRef::new("in");
        let e = g.center() * g.offset(1, 0, 0);
        assert!(matches!(
            Stencil::assign("out", e),
            Err(StencilError::NonLinear(_))
        ));
    }

    #[test]
    fn two_input_grids_rejected() {
        let g = GridRef::new("in");
        let h = GridRef::new("other");
        let e = g.center() + h.center();
        assert!(matches!(
            Stencil::assign("out", e),
            Err(StencilError::MultipleInputGrids(_, _))
        ));
    }

    #[test]
    fn bare_coefficient_rejected() {
        let g = GridRef::new("in");
        let a = ConstRef::new("a");
        let e = g.center() + Expr::Coeff(a);
        assert!(matches!(
            Stencil::assign("out", e),
            Err(StencilError::NonLinear(_))
        ));
    }

    #[test]
    fn unbound_coefficient_errors_at_resolve() {
        let s = star7();
        let b = CoeffBindings::new().bind("a0", 1.0);
        assert!(matches!(
            s.resolve(&b),
            Err(StencilError::UnboundCoefficient(_))
        ));
    }

    #[test]
    fn resolve_with_bindings() {
        let s = star7();
        let b = CoeffBindings::new().bind("a0", -6.0).bind("a1", 1.0);
        let taps = s.resolve(&b).unwrap();
        let center = taps.iter().find(|(o, _)| *o == [0, 0, 0]).unwrap();
        assert_eq!(center.1, -6.0);
        assert_eq!(taps.iter().map(|(_, w)| *w).sum::<f64>(), 0.0);
    }

    #[test]
    fn default_bindings_cover_all_symbols() {
        let s = star7();
        let b = s.default_bindings();
        assert_eq!(b.len(), 2);
        assert!(s.resolve(&b).is_ok());
    }

    #[test]
    fn scaled_symbol_coefficients() {
        let g = GridRef::new("in");
        let a = ConstRef::new("a");
        let e = (2.0 * a.clone()) * g.center() + a * g.offset(1, 0, 0);
        let s = Stencil::assign("out", e).unwrap();
        // two taps, two distinct classes (2a vs a)
        assert_eq!(s.points(), 2);
        assert_eq!(s.coefficient_classes(), 2);
        assert_eq!(s.symbols().len(), 1);
        let taps = s.resolve(&CoeffBindings::new().bind("a", 3.0)).unwrap();
        assert_eq!(taps, vec![([0, 0, 0], 6.0), ([1, 0, 0], 3.0)]);
    }

    #[test]
    fn lincoeff_display() {
        let g = GridRef::new("in");
        let a = ConstRef::new("a");
        let e = (a * g.center()) + 0.5 * g.center();
        let s = Stencil::assign("out", e).unwrap();
        assert_eq!(s.taps()[0].coeff.to_string(), "a + 0.5");
    }
}
