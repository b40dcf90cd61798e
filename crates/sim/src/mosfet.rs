//! A smooth LEVEL-1-style MOSFET model.
//!
//! The classic SPICE LEVEL-1 square-law model has a hard cutoff at
//! `vgs = vth`, which is murder for Newton convergence. We therefore blend
//! the overdrive through a softplus,
//!
//! ```text
//! vov_eff = n·vt · ln(1 + exp((vgs − vth) / (n·vt)))
//! ```
//!
//! which reproduces the square law in strong inversion and an exponential
//! subthreshold characteristic below threshold, with C¹ continuity
//! everywhere. Channel-length modulation (`λ`), body effect (`γ, φ`) and
//! drain–source symmetry (automatic terminal swap for `vds < 0`) are
//! included, as are the overlap/oxide capacitances and thermal + flicker
//! noise parameters used by the AC, transient and noise analyses.

use crate::VT_THERMAL;

/// N- or P-channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MosPolarity {
    /// N-channel device.
    Nmos,
    /// P-channel device.
    Pmos,
}

/// Operating region of a MOSFET at a bias point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MosRegion {
    /// `vgs` below threshold (weak inversion).
    Subthreshold,
    /// Strong inversion, `vds < vdsat`.
    Triode,
    /// Strong inversion, `vds ≥ vdsat`.
    Saturation,
}

/// MOSFET model card.
///
/// The default cards [`nmos_180nm`] and [`pmos_180nm`] carry representative
/// 180 nm CMOS values (they are not a foundry PDK — see `DESIGN.md`).
#[derive(Debug, Clone, PartialEq)]
pub struct MosModel {
    /// Channel polarity.
    pub polarity: MosPolarity,
    /// Zero-bias threshold voltage magnitude, volts (positive number).
    pub vt0: f64,
    /// Transconductance parameter `µ·Cox`, A/V².
    pub kp: f64,
    /// Channel-length modulation per meter of length: `λ = lambda_l / L`.
    /// Units: V⁻¹·m.
    pub lambda_l: f64,
    /// Body-effect coefficient γ, √V.
    pub gamma: f64,
    /// Surface potential 2φF, volts.
    pub phi: f64,
    /// Subthreshold slope factor `n` (typically 1.3–1.6).
    pub n_sub: f64,
    /// Gate-oxide capacitance per area, F/m².
    pub cox: f64,
    /// Gate-drain/source overlap capacitance per width, F/m.
    pub c_overlap: f64,
    /// Junction capacitance per area, F/m².
    pub cj: f64,
    /// Source/drain diffusion length, meters (sets junction area `W·ldiff`).
    pub ldiff: f64,
    /// Flicker-noise coefficient KF (SPICE convention), A·F.
    pub kf: f64,
}

/// Representative 180 nm NMOS card.
pub fn nmos_180nm() -> MosModel {
    MosModel {
        polarity: MosPolarity::Nmos,
        vt0: 0.45,
        kp: 300e-6,
        lambda_l: 0.02e-6, // λ = 0.11 V⁻¹ at L = 0.18 µm
        gamma: 0.5,
        phi: 0.8,
        n_sub: 1.4,
        cox: 8.5e-3,
        c_overlap: 0.4e-9,
        cj: 1.0e-3,
        ldiff: 0.5e-6,
        kf: 2e-26,
    }
}

/// Representative 180 nm PMOS card.
pub fn pmos_180nm() -> MosModel {
    MosModel {
        polarity: MosPolarity::Pmos,
        vt0: 0.45,
        kp: 80e-6,
        lambda_l: 0.025e-6,
        gamma: 0.45,
        phi: 0.8,
        n_sub: 1.45,
        cox: 8.5e-3,
        c_overlap: 0.4e-9,
        cj: 1.1e-3,
        ldiff: 0.5e-6,
        kf: 1e-26,
    }
}

/// Large- and small-signal quantities of a MOSFET at a bias point.
///
/// All quantities are in the **circuit frame**: `id` is the current flowing
/// into the drain terminal (negative for a conducting PMOS), and the
/// conductances are the partial derivatives of that current with respect to
/// the circuit-frame `vgs`, `vds`, `vbs`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosOp {
    /// Drain current (into the drain terminal), amps.
    pub id: f64,
    /// `∂id/∂vgs`, siemens.
    pub gm: f64,
    /// `∂id/∂vds`, siemens.
    pub gds: f64,
    /// `∂id/∂vbs`, siemens.
    pub gmbs: f64,
    /// Effective threshold voltage (device frame), volts.
    pub vth: f64,
    /// Effective overdrive (softplus-blended), volts.
    pub vov: f64,
    /// Saturation voltage, volts.
    pub vdsat: f64,
    /// Operating region.
    pub region: MosRegion,
}

impl MosModel {
    /// λ for a given channel length.
    pub fn lambda(&self, l: f64) -> f64 {
        self.lambda_l / l
    }

    /// Evaluates the device at circuit-frame terminal voltages.
    ///
    /// `vd, vg, vs, vb` are node voltages; geometry is width `w`, length
    /// `l` (meters) and multiplier `m`.
    // Four terminals + three geometry values is the device's natural arity.
    #[allow(clippy::too_many_arguments)]
    pub fn eval(&self, vd: f64, vg: f64, vs: f64, vb: f64, w: f64, l: f64, m: f64) -> MosOp {
        let beta = self.kp * (w / l) * m;
        let lambda = self.lambda(l);
        let (vgs, vds, vbs) = (vg - vs, vd - vs, vb - vs);
        if self.polarity == MosPolarity::Pmos {
            // Evaluate the mirrored device and flip the current sign;
            // conductances are even under the mirror.
            let op = self.eval_nmos_frame(beta, lambda, -vgs, -vds, -vbs);
            MosOp { id: -op.id, ..op }
        } else {
            self.eval_nmos_frame(beta, lambda, vgs, vds, vbs)
        }
    }

    /// Gate–source capacitance (2/3 C_ox + overlap), farads.
    pub fn cgs(&self, w: f64, l: f64, m: f64) -> f64 {
        (2.0 / 3.0 * self.cox * w * l + self.c_overlap * w) * m
    }

    /// Gate–drain capacitance (overlap only, saturation approximation).
    pub fn cgd(&self, w: f64, _l: f64, m: f64) -> f64 {
        self.c_overlap * w * m
    }

    /// Drain–bulk junction capacitance.
    pub fn cdb(&self, w: f64, _l: f64, m: f64) -> f64 {
        self.cj * w * self.ldiff * m
    }

    /// Source–bulk junction capacitance.
    pub fn csb(&self, w: f64, l: f64, m: f64) -> f64 {
        self.cdb(w, l, m)
    }

    /// Thermal drain-noise current PSD `4kT·(2/3)·gm`, A²/Hz.
    pub fn thermal_noise_psd(&self, gm: f64) -> f64 {
        4.0 * crate::KT * (2.0 / 3.0) * gm.abs()
    }

    /// Flicker drain-noise current PSD `KF·|Id| / (Cox·W·L·m·f)`, A²/Hz.
    pub fn flicker_noise_psd(&self, id: f64, w: f64, l: f64, m: f64, freq: f64) -> f64 {
        self.kf * id.abs() / (self.cox * w * l * m * freq.max(1e-3))
    }
}

impl MosModel {
    /// Evaluates in the NMOS frame, handling drain–source swap for
    /// `vds < 0` so the model is symmetric. `beta = kp·(W/L)·m` and
    /// `lambda = lambda_l/L` are the per-device constants.
    fn eval_nmos_frame(&self, beta: f64, lambda: f64, vgs: f64, vds: f64, vbs: f64) -> MosOp {
        if vds >= 0.0 {
            self.eval_forward(beta, lambda, vgs, vds, vbs)
        } else {
            // Swap D and S: the "source" is now the original drain.
            let op = self.eval_forward(beta, lambda, vgs - vds, -vds, vbs - vds);
            // id = −id'(vgs − vds, −vds, vbs − vds); chain rule gives:
            MosOp {
                id: -op.id,
                gm: -op.gm,
                gds: op.gm + op.gds + op.gmbs,
                gmbs: -op.gmbs,
                ..op
            }
        }
    }

    /// Core forward-mode evaluation (`vds ≥ 0`, NMOS frame).
    fn eval_forward(&self, beta: f64, lambda: f64, vgs: f64, vds: f64, vbs: f64) -> MosOp {
        let nvt = self.n_sub * VT_THERMAL;

        // Body effect, with vbs clamped below phi to keep the sqrt real.
        let vbs_c = vbs.min(self.phi - 1e-3);
        let sqrt_term = (self.phi - vbs_c).sqrt();
        let vth = self.vt0 + self.gamma * (sqrt_term - self.phi.sqrt());
        // dvth/dvbs = −γ / (2√(φ − vbs)); zero in the clamped zone.
        let dvth_dvbs = if vbs < self.phi - 1e-3 {
            -self.gamma / (2.0 * sqrt_term)
        } else {
            0.0
        };

        // Softplus-blended overdrive.
        let x = (vgs - vth) / nvt;
        let (vov, sigma) = if x > 40.0 {
            (vgs - vth, 1.0)
        } else if x < -40.0 {
            (nvt * x.exp(), x.exp())
        } else {
            (nvt * x.exp().ln_1p(), 1.0 / (1.0 + (-x).exp()))
        };

        let clm = 1.0 + lambda * vds;
        let (ids0, d_dvds, d_dvov, region) = if vds < vov {
            // Triode.
            let i = beta * (vov * vds - 0.5 * vds * vds);
            (i, beta * (vov - vds), beta * vds, MosRegion::Triode)
        } else {
            // Saturation.
            let i = 0.5 * beta * vov * vov;
            (i, 0.0, beta * vov, MosRegion::Saturation)
        };
        let region = if x < 0.0 {
            MosRegion::Subthreshold
        } else {
            region
        };

        let id = ids0 * clm;
        let gds = d_dvds * clm + ids0 * lambda;
        let gm_vov = d_dvov * clm;
        let gm = gm_vov * sigma;
        // vth falls with vbs rising → more current: gmbs = gm_vov·σ·(−dvth/dvbs)
        let gmbs = gm_vov * sigma * (-dvth_dvbs);

        MosOp {
            id,
            gm,
            gds,
            gmbs,
            vth,
            vov,
            vdsat: vov,
            region,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: f64 = 10e-6;
    const L: f64 = 1e-6;
    const M: f64 = 1.0;

    #[test]
    fn cutoff_current_is_tiny() {
        let nmos = nmos_180nm();
        let op = nmos.eval(1.8, 0.0, 0.0, 0.0, W, L, M);
        assert!(op.id > 0.0, "subthreshold current should be positive");
        assert!(op.id < 1e-9, "cutoff leakage too large: {}", op.id);
        assert_eq!(op.region, MosRegion::Subthreshold);
    }

    #[test]
    fn saturation_current_matches_square_law() {
        let nmos = nmos_180nm();
        let vgs = 1.0;
        let op = nmos.eval(1.8, vgs, 0.0, 0.0, W, L, M);
        assert_eq!(op.region, MosRegion::Saturation);
        let beta = nmos.kp * W / L;
        let vov = vgs - nmos.vt0;
        let expected = 0.5 * beta * vov * vov * (1.0 + nmos.lambda(L) * 1.8);
        let rel = (op.id - expected).abs() / expected;
        // Softplus blending slightly reshapes the overdrive near threshold.
        assert!(rel < 0.15, "Id {} vs square-law {}", op.id, expected);
    }

    #[test]
    fn triode_region_detected() {
        let nmos = nmos_180nm();
        let op = nmos.eval(0.05, 1.5, 0.0, 0.0, W, L, M);
        assert_eq!(op.region, MosRegion::Triode);
        // Small-vds triode current ≈ beta·vov·vds
        assert!(op.id > 0.0);
        assert!(op.gds > op.gm * 0.1, "triode should be resistive");
    }

    #[test]
    fn gm_positive_and_increases_with_bias() {
        let nmos = nmos_180nm();
        let g1 = nmos.eval(1.8, 0.8, 0.0, 0.0, W, L, M).gm;
        let g2 = nmos.eval(1.8, 1.2, 0.0, 0.0, W, L, M).gm;
        assert!(g1 > 0.0);
        assert!(g2 > g1);
    }

    #[test]
    fn body_effect_raises_threshold() {
        let nmos = nmos_180nm();
        let op0 = nmos.eval(1.8, 1.0, 0.0, 0.0, W, L, M);
        let op1 = nmos.eval(1.8, 1.0, 0.0, -0.9, W, L, M); // reverse body bias
        assert!(op1.vth > op0.vth);
        assert!(op1.id < op0.id);
        assert!(op0.gmbs > 0.0);
    }

    #[test]
    fn pmos_mirrors_nmos() {
        let pmos = pmos_180nm();
        // PMOS with source at 1.8 V, gate at 0.8 V (|vgs| = 1), drain at 0.
        let op = pmos.eval(0.0, 0.8, 1.8, 1.8, W, L, M);
        assert!(
            op.id < 0.0,
            "conducting PMOS drain current must be negative"
        );
        assert!(op.gm > 0.0, "conductances stay positive");
        assert!(op.gds > 0.0);
        assert_eq!(op.region, MosRegion::Saturation);
    }

    #[test]
    fn drain_source_swap_is_antisymmetric() {
        let nmos = nmos_180nm();
        // A symmetric device: swapping D and S must negate the current.
        let fwd = nmos.eval(0.3, 1.2, 0.0, 0.0, W, L, M);
        let rev = nmos.eval(0.0, 1.2, 0.3, 0.0, W, L, M);
        // In the reverse case the gate-to-true-source voltage differs (the
        // true source is at 0.3 V), so only check sign and continuity.
        assert!(fwd.id > 0.0);
        assert!(rev.id < 0.0);
    }

    #[test]
    fn current_is_continuous_across_vds_zero() {
        let nmos = nmos_180nm();
        let e = 1e-6;
        let ip = nmos.eval(e, 1.2, 0.0, 0.0, W, L, M).id;
        let im = nmos.eval(-e, 1.2, 0.0, 0.0, W, L, M).id;
        assert!(ip > 0.0 && im < 0.0);
        assert!((ip + im).abs() < 1e-8, "asymmetry at vds=0: {ip} vs {im}");
    }

    /// Central-difference check of all three conductances across regions.
    #[test]
    fn conductances_match_finite_difference() {
        let nmos = nmos_180nm();
        let h = 1e-7;
        let biases = [
            (1.8, 1.0, 0.0, 0.0),  // saturation
            (0.1, 1.5, 0.0, 0.0),  // triode
            (1.8, 0.40, 0.0, 0.0), // subthreshold
            (1.2, 0.9, 0.3, 0.0),  // with source degeneration + body
            (-0.2, 1.2, 0.0, 0.0), // reversed vds
        ];
        for (vd, vg, vs, vb) in biases {
            let op = nmos.eval(vd, vg, vs, vb, W, L, M);
            let fd_gm = (nmos.eval(vd, vg + h, vs, vb, W, L, M).id
                - nmos.eval(vd, vg - h, vs, vb, W, L, M).id)
                / (2.0 * h);
            let fd_gds = (nmos.eval(vd + h, vg, vs, vb, W, L, M).id
                - nmos.eval(vd - h, vg, vs, vb, W, L, M).id)
                / (2.0 * h);
            let fd_gmbs = (nmos.eval(vd, vg, vs, vb + h, W, L, M).id
                - nmos.eval(vd, vg, vs, vb - h, W, L, M).id)
                / (2.0 * h);
            let tol = |fd: f64| 1e-5 * (1.0 + fd.abs());
            assert!(
                (op.gm - fd_gm).abs() < tol(fd_gm),
                "gm at {vd},{vg},{vs},{vb}: {} vs {fd_gm}",
                op.gm
            );
            assert!(
                (op.gds - fd_gds).abs() < tol(fd_gds),
                "gds at {vd},{vg},{vs},{vb}: {} vs {fd_gds}",
                op.gds
            );
            assert!(
                (op.gmbs - fd_gmbs).abs() < tol(fd_gmbs),
                "gmbs at {vd},{vg},{vs},{vb}: {} vs {fd_gmbs}",
                op.gmbs
            );
        }
    }

    #[test]
    fn pmos_conductances_match_finite_difference() {
        let pmos = pmos_180nm();
        let h = 1e-7;
        let (vd, vg, vs, vb) = (0.3, 0.7, 1.8, 1.8);
        let op = pmos.eval(vd, vg, vs, vb, W, L, M);
        let fd_gm = (pmos.eval(vd, vg + h, vs, vb, W, L, M).id
            - pmos.eval(vd, vg - h, vs, vb, W, L, M).id)
            / (2.0 * h);
        // Circuit-frame gm is ∂id/∂vgs = ∂id/∂vg (vs held fixed).
        assert!(
            (op.gm - fd_gm).abs() < 1e-5 * (1.0 + fd_gm.abs()),
            "pmos gm {} vs fd {}",
            op.gm,
            fd_gm
        );
        let fd_gds = (pmos.eval(vd + h, vg, vs, vb, W, L, M).id
            - pmos.eval(vd - h, vg, vs, vb, W, L, M).id)
            / (2.0 * h);
        assert!((op.gds - fd_gds).abs() < 1e-5 * (1.0 + fd_gds.abs()));
    }

    #[test]
    fn multiplier_scales_current_linearly() {
        let nmos = nmos_180nm();
        let i1 = nmos.eval(1.8, 1.0, 0.0, 0.0, W, L, 1.0).id;
        let i4 = nmos.eval(1.8, 1.0, 0.0, 0.0, W, L, 4.0).id;
        assert!((i4 / i1 - 4.0).abs() < 1e-12);
    }

    #[test]
    fn capacitances_scale_with_geometry() {
        let nmos = nmos_180nm();
        assert!(nmos.cgs(2.0 * W, L, M) > nmos.cgs(W, L, M));
        assert!(nmos.cgs(W, L, 2.0) > nmos.cgs(W, L, 1.0));
        assert!(nmos.cgd(W, L, M) > 0.0);
        assert!(nmos.cdb(W, L, M) > 0.0);
        assert_eq!(nmos.cdb(W, L, M), nmos.csb(W, L, M));
    }

    #[test]
    fn noise_psds_positive() {
        let nmos = nmos_180nm();
        assert!(nmos.thermal_noise_psd(1e-3) > 0.0);
        let f1 = nmos.flicker_noise_psd(1e-4, W, L, M, 1.0);
        let f1k = nmos.flicker_noise_psd(1e-4, W, L, M, 1000.0);
        assert!(f1 > f1k * 999.0, "flicker must fall as 1/f");
    }

    #[test]
    fn longer_channel_reduces_lambda() {
        let nmos = nmos_180nm();
        assert!(nmos.lambda(0.18e-6) > nmos.lambda(1.0e-6));
    }
}
