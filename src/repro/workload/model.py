"""Foundation-model configurations and their memory arithmetic.

A :class:`ModelConfig` captures the architecture parameters that
determine the three data structures of Section 2:

- **weights**: ``n_params * bytes_per_param`` — the paper's "250 GB to
  over 1 TB depending on quantization" for 500B+ parameter models;
- **KV cache**: per token, every layer stores one K and one V vector of
  ``n_kv_heads * head_dim`` elements:
  ``2 * n_layers * n_kv_heads * head_dim * bytes_per_kv`` bytes/token.
  For multi-head attention (MHA) this is "a few MBs" per self-attention
  vector as the paper says; grouped-query attention (GQA) divides it by
  the group factor;
- **activations**: transient per-layer tensors, roughly an order of
  magnitude smaller than weights/KV for deployed batch sizes.

FLOP accounting uses the standard decoder-only estimates (~2 FLOPs per
parameter per token for the dense path plus the attention term), which
the roofline analysis in :mod:`repro.inference.roofline` consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import GiB, KiB, MiB


@dataclass(frozen=True)
class ModelConfig:
    """Architecture parameters of a decoder-only foundation model.

    Attributes
    ----------
    name:
        Identifier, e.g. ``"llama2-70b"``.
    n_params:
        Total parameter count.
    n_layers / hidden_dim / n_heads / n_kv_heads / head_dim:
        Transformer geometry.  ``n_kv_heads < n_heads`` models
        grouped-query attention.
    bytes_per_param / bytes_per_kv:
        Quantization of weights and KV-cache entries (2 = FP16/BF16,
        1 = FP8/INT8).
    context_limit_tokens:
        Maximum context length served in deployment.
    """

    name: str
    n_params: float
    n_layers: int
    hidden_dim: int
    n_heads: int
    n_kv_heads: int
    head_dim: int
    bytes_per_param: float = 2.0
    bytes_per_kv: float = 2.0
    context_limit_tokens: int = 4096

    def __post_init__(self) -> None:
        if self.n_params <= 0 or self.n_layers <= 0:
            raise ValueError(f"{self.name}: bad architecture parameters")
        if self.n_kv_heads > self.n_heads:
            raise ValueError(f"{self.name}: n_kv_heads > n_heads")
        if self.n_heads % self.n_kv_heads != 0:
            raise ValueError(f"{self.name}: n_heads not divisible by n_kv_heads")
        if self.bytes_per_param <= 0 or self.bytes_per_kv <= 0:
            raise ValueError(f"{self.name}: quantization must be positive")

    # ------------------------------------------------------------------
    # The three data structures (Section 2)
    # ------------------------------------------------------------------
    @property
    def weights_bytes(self) -> int:
        """Total model weight footprint."""
        return int(self.n_params * self.bytes_per_param)

    @property
    def kv_bytes_per_token(self) -> int:
        """The per-token self-attention vector: one K and one V per layer."""
        return int(
            2 * self.n_layers * self.n_kv_heads * self.head_dim * self.bytes_per_kv
        )

    def kv_cache_bytes(self, context_tokens: int) -> int:
        """KV-cache footprint of a context with ``context_tokens`` tokens."""
        if context_tokens < 0:
            raise ValueError("context length must be >= 0")
        return context_tokens * self.kv_bytes_per_token

    def activation_bytes(self, batch_size: int = 1) -> int:
        """Peak transient activation footprint of one forward pass.

        Per token-in-flight, the dominant live tensors are a few
        hidden-dim vectors per layer boundary plus attention scratch;
        with standard kernel fusion ~12x hidden per layer is a good
        deployment-scale estimate — and, as the paper says, it lands an
        order of magnitude below weights/KV for deployed batch sizes.
        """
        if batch_size < 1:
            raise ValueError("batch size must be >= 1")
        per_token = 12 * self.hidden_dim * self.n_layers * self.bytes_per_param
        return int(per_token * batch_size)

    @property
    def gqa_group_factor(self) -> int:
        """How many query heads share one KV head (1 = MHA)."""
        return self.n_heads // self.n_kv_heads

    # ------------------------------------------------------------------
    # Compute accounting
    # ------------------------------------------------------------------
    def decode_flops_per_token(self, context_tokens: int) -> float:
        """FLOPs to generate one token at a given context length.

        ~2 FLOPs per weight (matmul multiply-accumulate) plus the
        attention term, 2 * 2 * n_layers * context * kv_width.
        """
        if context_tokens < 0:
            raise ValueError("context length must be >= 0")
        dense = 2.0 * self.n_params
        attention = (
            4.0 * self.n_layers * context_tokens * self.n_kv_heads * self.head_dim
        )
        return dense + attention

    def prefill_flops(self, prompt_tokens: int) -> float:
        """FLOPs to prefill a prompt (attention grows quadratically)."""
        if prompt_tokens < 0:
            raise ValueError("prompt length must be >= 0")
        dense = 2.0 * self.n_params * prompt_tokens
        attention = (
            2.0
            * self.n_layers
            * prompt_tokens**2
            * self.n_kv_heads
            * self.head_dim
        )
        return dense + attention

    def describe(self) -> str:
        """One-line human summary."""
        return (
            f"{self.name}: {self.n_params / 1e9:.0f}B params, "
            f"weights {self.weights_bytes / GiB:.0f} GiB, "
            f"KV {self.kv_bytes_per_token / KiB:.0f} KiB/token "
            f"(GQA x{self.gqa_group_factor})"
        )


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------
#: Llama2-70B as deployed (grouped-query attention with 8 KV heads) —
#: the model Splitwise [37] reports, used for Figure 1's calibration.
LLAMA2_70B = ModelConfig(
    name="llama2-70b",
    n_params=70e9,
    n_layers=80,
    hidden_dim=8192,
    n_heads=64,
    n_kv_heads=8,
    head_dim=128,
    bytes_per_param=2.0,
    bytes_per_kv=2.0,
    context_limit_tokens=4096,
)

#: The same architecture with full multi-head attention. Its
#: self-attention vector is 2.6 MiB/token — the "few MBs" figure the
#: paper quotes [4, 44]; useful as the conservative (write-heavy) bound.
LLAMA2_70B_MHA = ModelConfig(
    name="llama2-70b-mha",
    n_params=70e9,
    n_layers=80,
    hidden_dim=8192,
    n_heads=64,
    n_kv_heads=64,
    head_dim=128,
    bytes_per_param=2.0,
    bytes_per_kv=2.0,
    context_limit_tokens=4096,
)

#: A 500B+-class frontier model ("well over 500 billion weights",
#: 250 GB - 1 TB depending on quantization).
GPT_CLASS_500B = ModelConfig(
    name="gpt-class-500b",
    n_params=500e9,
    n_layers=120,
    hidden_dim=16384,
    n_heads=128,
    n_kv_heads=16,
    head_dim=128,
    bytes_per_param=2.0,
    bytes_per_kv=2.0,
    context_limit_tokens=32768,
)

#: A mid-size model for faster simulations.
LLAMA2_13B = ModelConfig(
    name="llama2-13b",
    n_params=13e9,
    n_layers=40,
    hidden_dim=5120,
    n_heads=40,
    n_kv_heads=40,
    head_dim=128,
    bytes_per_param=2.0,
    bytes_per_kv=2.0,
    context_limit_tokens=4096,
)

#: A small expert model (Section 4: "expert models tailored for specific
#: use cases").
PHI_3_MINI = ModelConfig(
    name="phi-3-mini",
    n_params=3.8e9,
    n_layers=32,
    hidden_dim=3072,
    n_heads=32,
    n_kv_heads=32,
    head_dim=96,
    bytes_per_param=2.0,
    bytes_per_kv=2.0,
    context_limit_tokens=4096,
)
