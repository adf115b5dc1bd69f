"""The embedding model, classifiers, and a hand-rolled reverse-mode pass
through embed -> adapter -> l2-normalize.

The model is one Backbone: a small feed-forward tanh net mapping R^D to R^d,
whose final layer is linear, then a residual adapter, then a projection to
the unit sphere. The adapter is a tanh bottleneck applied before
normalization, with its up-projection zero-initialized so a fresh adapter is
an exact identity; only this module knows it is there. Every kernel takes
(n, ...) rows, and a 1-D input raises AdaptclError.
"""

import itertools
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
    """The model's parameters as one float64 vector, flat = W0, b0, W1, b1,
    ..., then the adapter's down (r, d) and up (d, r); weights[l] (out, in),
    biases[l] (out,), down and up are views into it. widths are the layer
    widths: input, hidden..., embedding d. The adapter rank r is whatever
    flat holds past the layers."""

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
        d = self.widths[-1]
        mid = start + (self.flat.size - start) // 2
        self.down = self.flat[start:mid].reshape(-1, d)
        self.up = self.flat[mid:].reshape(d, -1)

    def param_dict(self) -> dict:
        d = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            d[f"layer{i}.W"] = w
            d[f"layer{i}.b"] = b
        d["adapter.down"], d["adapter.up"] = self.down, self.up
        return d

    def copy(self) -> "Backbone":
        return Backbone(self.flat.copy(), self.widths)


def init_model(config: ModelConfig, input_dim: int, rng: np.random.Generator) -> Backbone:
    """Scaled-uniform init U(-1/sqrt(fan_in), 1/sqrt(fan_in)) of the layer
    weights, then the adapter's down-projection; zero biases and
    up-projection."""
    widths = (input_dim, *config.hidden, config.embed_dim)
    size = sum(fan_out * (fan_in + 1) for fan_in, fan_out in zip(widths, widths[1:]))
    backbone = Backbone(np.zeros(size + 2 * config.adapter_rank * config.embed_dim), widths)
    for w in [*backbone.weights, backbone.down]:
        s = 1.0 / np.sqrt(w.shape[1])
        w[:] = rng.uniform(-s, s, size=w.shape)
    return backbone


@dataclass
class Tape:
    """Intermediates of one forward pass over an (n, D) batch, which
    backprop reads. unit is (n, d) and norm (n,)."""

    acts: list  # each backbone layer's input
    raw: np.ndarray  # backbone output before adapter
    adapter_act: "np.ndarray | None"  # tanh(raw @ down.T); None at adapter rank 0
    norm: np.ndarray
    unit: np.ndarray


def embed_with_tape(backbone: Backbone, x):
    """Forward pass over (n, D) rows: layers, adapter (skipped at rank 0),
    l2-normalize. Returns the (n, d) unit embeddings and the Tape that
    backprop reads."""
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
    if backbone.up.size:
        z = raw @ backbone.down.T
        adapter_act = np.tanh(z, out=z)
        a = raw + adapter_act @ backbone.up.T
    try:
        unit, norm = l2_normalize_with_norm(a)
    except DegenerateVector as e:
        raise DegenerateVector(f"embedding {e}") from e
    return unit, Tape(acts=acts, raw=raw, adapter_act=adapter_act, norm=norm, unit=unit)


def embed(backbone: Backbone, x) -> np.ndarray:
    """Forward pass to unit-norm embeddings: (n, D) -> (n, d)."""
    return embed_with_tape(backbone, x)[0]


def backprop(tape: Tape, backbone: Backbone, d_embedding: np.ndarray, out=None):
    """Gradients of sum_i <unit_i, d_embedding_i> w.r.t. all parameters, as a
    Backbone laid out like the model: its flat vector is the gradient of the
    model's flat vector, and its param_dict names the groups. out, a Backbone
    an earlier call returned for the same model, is overwritten and returned
    instead of a new one, so a training loop allocates one for all of its
    steps.

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
        out = backbone.copy()
    if tape.adapter_act is not None:
        h = tape.adapter_act
        d_h = _tanh_deriv(h)
        d_h *= delta @ backbone.up
        np.matmul(delta.T, h, out=out.up)
        np.matmul(d_h.T, tape.raw, out=out.down)
        delta += d_h @ backbone.down

    for i in range(len(backbone.weights) - 1, -1, -1):
        np.matmul(delta.T, tape.acts[i], out=out.weights[i])
        np.add.reduce(delta, axis=0, out=out.biases[i])
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


def _checkpoint_lines(backbone: Backbone):
    """The lines of the model's checkpoint, without line ends: activation;tanh,
    n_layers;<N>, then per array in name order a `name;dims` line and a row
    of its values' reprs, comma-joined (empty for an array of size 0). The
    one definition of the format, for writing and for loading."""
    params = backbone.param_dict()
    yield "activation;tanh"
    yield f"n_layers;{len(backbone.weights)}"
    for name in sorted(params):
        arr = params[name]
        yield f"{name};{'x'.join(map(str, arr.shape))}"
        yield ",".join(map(repr, arr.reshape(-1).tolist()))


def save_checkpoint(path, backbone: Backbone) -> None:
    """Text checkpoint: the _checkpoint_lines of the model, each ended by a
    line feed. Layout documented in the README."""
    with open(path, "w", newline="\n") as f:
        f.writelines(line + "\n" for line in _checkpoint_lines(backbone))


def load_checkpoint(path):
    """The model save_checkpoint wrote. Raises CheckpointError unless the file
    is exactly what save_checkpoint writes for the arrays it holds, and those
    hold finite values only."""
    try:
        with open(path, newline="") as f:
            lines = f.read().split("\n")
    except (OSError, UnicodeDecodeError) as e:
        raise CheckpointError(str(e)) from e
    try:
        arrays = {}
        for head, row in zip(lines[2::2], lines[3::2]):
            name, dims = head.split(";")
            values = np.array([float(v) for v in row.split(",")] if row else [])
            if not np.isfinite(values).all():
                raise ValueError(f"non-finite value in {name}")
            arrays[name] = values.reshape(tuple(map(int, dims.split("x"))))
        n_layers = int(lines[1].removeprefix("n_layers;"))
        layers = [arrays[f"layer{i}.{p}"] for i in range(n_layers) for p in "Wb"]
        widths = (layers[0].shape[-1], *map(len, layers[1::2]))
        if not widths[-1]:
            raise ValueError("adapter on embedding width 0")
        parts = [*layers, arrays["adapter.down"], arrays["adapter.up"]]
        backbone = Backbone(np.concatenate(parts, axis=None), widths)
    except KeyError as e:
        raise CheckpointError(f"malformed checkpoint {path}: missing array {e}") from e
    except (IndexError, ValueError) as e:
        raise CheckpointError(f"malformed checkpoint {path}: {e}") from e
    written = itertools.chain(_checkpoint_lines(backbone), [""])
    for number, (line, want) in enumerate(itertools.zip_longest(lines, written), start=1):
        if line != want:
            raise CheckpointError(
                f"malformed checkpoint {path}: line {number} is not what save_checkpoint writes"
            )
    return backbone
