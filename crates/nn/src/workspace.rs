use maopt_linalg::Mat;

/// Reusable buffers for allocation-free MLP passes.
///
/// A `Workspace` owns the per-layer activation buffers of an
/// [`crate::Mlp::forward_ws`] pass and the ping-pong gradient buffers of
/// the matching [`crate::Mlp::backward_ws`]. Buffers are sized lazily on
/// first use and reused afterwards: once warmed up for a given
/// `(batch, widths)` shape, a full forward + backward pass performs
/// **zero heap allocations**.
///
/// This is the only way through a network: layers hold no activation
/// caches, so activations live in caller-owned buffers and layers stay
/// untouched (`&self`) during the forward pass. The nn property tests
/// check both passes bit for bit against a naive test-local loop.
///
/// One workspace serves one network shape at a time: interleaving
/// `forward_ws` calls of two differently-shaped networks through the
/// same workspace re-sizes the buffers each call (correct, but no longer
/// allocation-free). Networks of one shape — e.g. the members of a
/// critic ensemble — can share a workspace without re-sizing.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// `acts[0]` is a copy of the input; `acts[l + 1]` is layer `l`'s
    /// activated output.
    pub(crate) acts: Vec<Mat>,
    /// Ping-pong buffers holding `∂L/∂(layer input)` during backward.
    pub(crate) gbuf: [Mat; 2],
}

impl Workspace {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// The activated output of the most recent `forward_ws` pass, if
    /// one has run.
    pub fn output(&self) -> Option<&Mat> {
        self.acts.last()
    }
}
