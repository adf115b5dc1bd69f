"""Embedding network, residual adapter, classifiers, and a hand-rolled
reverse-mode pass through embed -> adapter -> l2-normalize.

The backbone is a small feed-forward tanh net mapping R^D to R^d; the final
layer is linear and the output is projected to the unit sphere. The adapter
is a tanh bottleneck residual applied before normalization, with its
up-projection zero-initialized so a fresh adapter is an exact identity.
Every kernel takes (n, ...) rows, and a 1-D input raises AdaptclError.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AdaptclError, CheckpointError, DegenerateVector
from .numerics import l2_normalize_with_norm


@dataclass(frozen=True)
class ModelConfig:
    embed_dim: int = 16
    hidden: tuple[int, ...] = (64, 64)
    adapter_rank: int = 8

    def __post_init__(self):
        if self.embed_dim < 2:
            raise ValueError("need embed_dim >= 2")
        if len(self.hidden) < 1 or any(h < 1 for h in self.hidden):
            raise ValueError("need at least one positive hidden width")
        if self.adapter_rank < 0:
            raise ValueError("adapter_rank must be >= 0")


def _tanh_deriv(a):
    """tanh' from its output a = tanh(z), 1 - a*a, in a new array."""
    d = a * a
    return np.subtract(1.0, d, out=d)


@dataclass
class Backbone:
    """The layers' parameters as one float64 vector, flat = W0, b0, W1, b1,
    ...; weights[l] (out, in) and biases[l] (out,) are views into it. widths
    are the layer widths: input, hidden..., embedding."""

    flat: np.ndarray
    widths: tuple

    def __post_init__(self):
        self.weights, self.biases = [], []
        start = 0
        for fan_in, fan_out in zip(self.widths, self.widths[1:]):
            mid = start + fan_out * fan_in
            self.weights.append(self.flat[start:mid].reshape(fan_out, fan_in))
            self.biases.append(self.flat[mid : mid + fan_out])
            start = mid + fan_out

    def param_dict(self) -> dict:
        d = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            d[f"layer{i}.W"] = w
            d[f"layer{i}.b"] = b
        return d

    def copy(self) -> "Backbone":
        return Backbone(self.flat.copy(), self.widths)


@dataclass
class AdapterModule:
    """down (r, d) and up (d, r) as views into one float64 vector, flat =
    down, up; dim is the embedding width d."""

    flat: np.ndarray
    dim: int

    def __post_init__(self):
        rank = self.flat.size // (2 * self.dim)
        self.down = self.flat[: rank * self.dim].reshape(rank, self.dim)
        self.up = self.flat[rank * self.dim :].reshape(self.dim, rank)

    def param_dict(self) -> dict:
        return {"adapter.down": self.down, "adapter.up": self.up}

    def copy(self) -> "AdapterModule":
        return AdapterModule(self.flat.copy(), self.dim)


def model_params(backbone: Backbone, adapter: "AdapterModule | None") -> dict:
    params = backbone.param_dict()
    if adapter is not None:
        params.update(adapter.param_dict())
    return params


def init_model(config: ModelConfig, input_dim: int, rng: np.random.Generator):
    """Scaled-uniform init U(-1/sqrt(fan_in), 1/sqrt(fan_in)); zero biases and
    up-projection."""
    widths = (input_dim, *config.hidden, config.embed_dim)
    size = sum(fan_out * (fan_in + 1) for fan_in, fan_out in zip(widths, widths[1:]))
    backbone = Backbone(np.zeros(size), widths)
    for w in backbone.weights:
        s = 1.0 / np.sqrt(w.shape[1])
        w[:] = rng.uniform(-s, s, size=w.shape)
    d = config.embed_dim
    adapter = AdapterModule(np.zeros(2 * config.adapter_rank * d), d)
    s = 1.0 / np.sqrt(d)
    adapter.down[:] = rng.uniform(-s, s, size=adapter.down.shape)
    return backbone, adapter


@dataclass
class Tape:
    """Intermediates of one forward pass over an (n, D) batch, which
    backprop reads. unit is (n, d) and norm (n,)."""

    acts: list  # each backbone layer's input
    raw: np.ndarray  # backbone output before adapter
    adapter_act: "np.ndarray | None"  # tanh(raw @ down.T); None without an adapter
    norm: np.ndarray
    unit: np.ndarray


def embed_with_tape(backbone: Backbone, adapter, x):
    """Forward pass over (n, D) rows: backbone, adapter, l2-normalize.
    Returns the (n, d) unit embeddings and the Tape that backprop reads."""
    a = np.asarray(x, dtype=np.float64)
    in_dim = backbone.weights[0].shape[1]
    if a.ndim != 2 or a.shape[1] != in_dim:
        raise AdaptclError(f"input shape {a.shape} vs expected (n, {in_dim})")
    acts = []
    for w, b in zip(backbone.weights[:-1], backbone.biases[:-1]):
        acts.append(a)
        z = a @ w.T
        z += b
        a = np.tanh(z, out=z)
    acts.append(a)
    raw = a @ backbone.weights[-1].T
    raw += backbone.biases[-1]
    a, adapter_act = raw, None
    if adapter is not None:
        z = raw @ adapter.down.T
        adapter_act = np.tanh(z, out=z)
        a = raw + adapter_act @ adapter.up.T
    try:
        unit, norm = l2_normalize_with_norm(a)
    except DegenerateVector as e:
        raise DegenerateVector(f"embedding {e}") from e
    return unit, Tape(acts=acts, raw=raw, adapter_act=adapter_act, norm=norm, unit=unit)


def embed(backbone: Backbone, adapter, x) -> np.ndarray:
    """Forward pass to unit-norm embeddings: (n, D) -> (n, d)."""
    return embed_with_tape(backbone, adapter, x)[0]


def backprop(tape: Tape, backbone: "Backbone | None", adapter, d_embedding: np.ndarray, out=None):
    """Gradients of sum_i <unit_i, d_embedding_i> w.r.t. all parameters, as a
    (Backbone, AdapterModule or None) pair laid out like the model: its flat
    vectors are the gradients of the model's flat vectors, and
    model_params(*grads) names them. out, a pair an earlier call returned for
    the same model, is overwritten and returned instead of a new pair, so a
    training loop allocates one pair for all of its steps.

    A caller that trains no backbone passes backbone=None: the pass then
    stops at the raw embedding and the pair's backbone part is None.

    Applies the normalization Jacobian (I - uu^T)/||v|| per row, then the
    adapter residual, then the backbone layers in reverse. Weight gradients
    are delta^T @ acts, summed over the rows of the batch.
    """
    g = np.asarray(d_embedding, dtype=np.float64)
    if g.shape != tape.unit.shape:
        raise AdaptclError(f"{g.shape} vs {tape.unit.shape}")

    u = tape.unit
    delta = u * g
    np.multiply(u, np.add.reduce(delta, axis=1, keepdims=True), out=delta)
    np.subtract(g, delta, out=delta)
    delta /= tape.norm[:, None]

    if out is None:
        out = (
            backbone.copy() if backbone is not None else None,
            adapter.copy() if adapter is not None else None,
        )
    d_backbone, d_adapter = out
    if tape.adapter_act is not None:
        h = tape.adapter_act
        d_h = _tanh_deriv(h)
        d_h *= delta @ adapter.up
        np.matmul(delta.T, h, out=d_adapter.up)
        np.matmul(d_h.T, tape.raw, out=d_adapter.down)
        if backbone is not None:
            delta += d_h @ adapter.down
    if backbone is None:
        return out

    for i in range(len(backbone.weights) - 1, -1, -1):
        np.matmul(delta.T, tape.acts[i], out=d_backbone.weights[i])
        np.add.reduce(delta, axis=0, out=d_backbone.biases[i])
        if i > 0:
            delta = delta @ backbone.weights[i]
            delta *= _tanh_deriv(tape.acts[i])
    return out


def label_index(class_ids, labels, owner):
    """Positions of an (n,) label array in class_ids, the row order of a
    Classifier's weight."""
    position = {c: i for i, c in enumerate(class_ids)}
    try:
        return np.array([position[y] for y in labels.tolist()])
    except KeyError as e:
        raise AdaptclError(f"label {e.args[0]!r} not in {owner}") from None


@dataclass
class Classifier:
    """The table of classes: one weight row per class id, in ascending id
    order. Ties break toward the lowest class id.

    Cosine (no bias): the rows are unit prototypes and the logits are the
    clipped cosines. Linear: the logits are weight @ e + bias.
    """

    class_ids: list  # ascending
    weight: np.ndarray  # (C, d), row i belongs to class_ids[i]
    bias: "np.ndarray | None" = None  # (C,) for a linear head

    @classmethod
    def linear(cls, class_ids, embed_dim: int) -> "Classifier":
        ids = sorted(set(class_ids))
        return cls(ids, np.zeros((len(ids), embed_dim)), np.zeros(len(ids)))

    def add_classes(self, class_ids, rows):
        """Insert one weight row per new class id (and a zero bias for a
        linear head), keeping the ids ascending; old rows are copied as they
        are. Raises ValueError for an id already present."""
        present = set(self.class_ids).intersection(class_ids)
        if present:
            raise ValueError(f"class {min(present)} already in classifier")
        ids = self.class_ids + list(class_ids)
        order = sorted(range(len(ids)), key=ids.__getitem__)
        self.class_ids = [ids[i] for i in order]
        self.weight = np.concatenate([self.weight, rows])[order]
        if self.bias is not None:
            self.bias = np.concatenate([self.bias, np.zeros(len(rows))])[order]

    def logits(self, embedding: np.ndarray) -> np.ndarray:
        """Logits per class id: (n, d) -> (n, C)."""
        if not self.class_ids:
            raise AdaptclError("no classes registered")
        e = np.asarray(embedding, dtype=np.float64)
        if e.ndim != 2 or e.shape[1] != self.weight.shape[1]:
            raise AdaptclError(f"{e.shape} vs weight {self.weight.shape}")
        scores = e @ self.weight.T
        if self.bias is None:
            return np.clip(scores, -1.0, 1.0)
        return scores + self.bias


def classify(classifier: Classifier, embedding: np.ndarray):
    """Predicted class ids (n,) and logits (n, C), ordered by ascending
    class id, for (n, d) embeddings."""
    logits = classifier.logits(embedding)
    idx = np.argmax(logits, axis=1)  # argmax returns the first max: lowest id wins
    return np.asarray(classifier.class_ids)[idx], logits


def save_checkpoint(path, backbone: Backbone, adapter) -> None:
    """Text checkpoint: per array a `name;dims` header line, then one CSV row
    of values. Layout documented in the README."""
    params = model_params(backbone, adapter)
    with open(path, "w", newline="\n") as f:
        f.write("activation;tanh\n")
        f.write(f"n_layers;{len(backbone.weights)}\n")
        for name in sorted(params):
            arr = params[name]
            dims = "x".join(str(s) for s in arr.shape)
            f.write(f"{name};{dims}\n")
            f.write(",".join(map(repr, arr.reshape(-1).tolist())) + "\n")


def _header(lines, i, key):
    """The value of header line i, which must read `key;<value>`."""
    name, *value = lines[i].split(";")
    if name != key or len(value) != 1:
        raise ValueError(f"line {i + 1} is {lines[i]!r}: want {key};<value>")
    return value[0]


def load_checkpoint(path):
    """The model save_checkpoint wrote. Raises CheckpointError unless the file
    starts with its activation;tanh and n_layers;<N> lines and holds dims of
    decimal counts, finite values, each layer array once, both adapter arrays
    or neither, no other array, and layer shapes that chain."""
    try:
        with open(path) as f:
            lines = [ln.rstrip("\n") for ln in f]
    except (OSError, UnicodeDecodeError) as e:
        raise CheckpointError(str(e)) from e
    try:
        activation = _header(lines, 0, "activation")
        if activation != "tanh":
            raise ValueError(f"activation {activation!r}: only tanh loads")
        n_layers = int(_header(lines, 1, "n_layers"))
        if n_layers < 1:
            raise ValueError("no layers")
        arrays = {}
        i = 2
        while i < len(lines):
            name, dims = lines[i].split(";")
            if name in arrays:
                raise ValueError(f"repeated array {name}")
            sizes = dims.split("x")
            if not all(s.isdecimal() for s in sizes):  # int() reads -1, +1 and " 1" too
                raise ValueError(f"{name} dims {dims!r}: want counts joined by x")
            shape = tuple(map(int, sizes))
            row = lines[i + 1]  # empty for an array of size 0
            values = np.array([float(v) for v in row.split(",")] if row else [])
            if not np.isfinite(values).all():
                raise ValueError(f"non-finite value in {name}")
            arrays[name] = values.reshape(shape)
            i += 2
        extra = set(arrays) - {f"layer{k}.{p}" for k in range(n_layers) for p in "Wb"}
        if extra not in (set(), {"adapter.down", "adapter.up"}):
            raise ValueError(f"arrays {sorted(extra)}: want both adapter arrays or neither")
        weights = [arrays[f"layer{i}.W"] for i in range(n_layers)]
        biases = [arrays[f"layer{i}.b"] for i in range(n_layers)]
        widths = [weights[0].shape[-1]]
        for i, (w, b) in enumerate(zip(weights, biases)):
            if b.ndim != 1 or w.shape != (len(b), widths[-1]):
                raise ValueError(f"layer{i} shapes {w.shape} and {b.shape} do not chain")
            widths.append(len(b))
        layers = [a for pair in zip(weights, biases) for a in pair]
        backbone = Backbone(np.concatenate(layers, axis=None), tuple(widths))
        adapter = None
        if extra:
            down, up = arrays["adapter.down"], arrays["adapter.up"]
            rank, width = len(down), widths[-1]
            if not width or down.shape != (rank, width) or up.shape != (width, rank):
                raise ValueError(f"adapter shapes do not fit embedding width {width}")
            adapter = AdapterModule(np.concatenate([down, up], axis=None), width)
    except KeyError as e:
        raise CheckpointError(f"malformed checkpoint {path}: missing array {e}") from e
    except (IndexError, ValueError) as e:
        raise CheckpointError(f"malformed checkpoint {path}: {e}") from e
    return backbone, adapter
