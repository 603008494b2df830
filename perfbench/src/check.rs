//! Output checks: invariants every pass must hold, and a digest of the
//! bit patterns of every simulated output so two commits can be compared
//! bit for bit.

/// FNV-1a over the bit patterns of simulated outputs.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds an integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a float's exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Folds an optional float (presence included).
    pub fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.u64(1);
                self.f64(x);
            }
            None => self.u64(0),
        }
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Collects broken invariants of one pass.
#[derive(Debug, Default)]
pub struct Check {
    broken: Vec<String>,
}

impl Check {
    /// Records `what` unless `ok`.
    pub fn ensure(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.broken.push(what());
        }
    }

    /// A simulated time or energy must be finite and positive.
    pub fn positive(&mut self, what: &str, v: f64) {
        self.ensure(v.is_finite() && v > 0.0, || format!("{what} = {v}"));
    }

    /// Every job id `0..n` appears exactly once, in order.
    pub fn each_job_once(&mut self, what: &str, ids: impl Iterator<Item = u64>, n: usize) {
        let ids: Vec<u64> = ids.collect();
        let ok = ids.len() == n && ids.iter().enumerate().all(|(i, &id)| id == i as u64);
        self.ensure(ok, || {
            format!(
                "{what}: {} decisions for {n} jobs, or ids out of order",
                ids.len()
            )
        });
    }

    /// `Ok` when nothing broke; otherwise the first few breaks.
    pub fn finish(self) -> Result<(), String> {
        if self.broken.is_empty() {
            return Ok(());
        }
        let shown: Vec<&str> = self.broken.iter().take(5).map(String::as_str).collect();
        Err(format!(
            "{} broken invariants: {}",
            self.broken.len(),
            shown.join("; ")
        ))
    }
}
