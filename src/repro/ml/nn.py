"""A minimal neural-network framework on numpy.

Provides exactly what the paper's models need: dense and 1-D
convolutional layers, ReLU/sigmoid activations, flattening, mean
squared error, the Adam optimizer, and a mini-batch training loop.
Backpropagation is hand-derived per layer; all state lives in
:class:`Parameter` objects so optimizers are layer-agnostic.

The paper's CNN applies 3x3 filters to (reshaped) feature vectors; with
13-dimensional inputs a 1-D convolution of width 3 is the faithful
equivalent, and the layer widths (64/64/128/128 conv + 512 dense, DNN
128/128/256/256) are kept as published.

Hot-path notes: every contraction routes through BLAS matmuls (the
convolution gradients fold their batch and length axes into one GEMM
instead of an ``einsum`` that numpy cannot dispatch to BLAS), and the
whole stack runs in float32 when asked (``Sequential.astype`` /
``fit(dtype=...)``) for another ~2x on memory-bound layers.  Three
choices keep a training step free of per-parameter passes:

- **One flat buffer per network.**  :class:`Adam` adopts the model's
  parameters into one contiguous value buffer and one contiguous
  gradient buffer, and re-points every ``Parameter.value``/``.grad``
  at a reshaped view of them, so the :class:`Parameter` API is
  unchanged.
- **Blocked Adam.**  The step runs its fixed sequence of in-place
  elementwise passes over blocks of :data:`ADAM_BLOCK` elements, so a
  block's live arrays stay cache-resident.  Elementwise arithmetic is
  per-element, so the block size never changes a bit of the result.
- **Backward overwrites gradients.**  ``Dense`` and ``Conv1D`` write
  their weight-gradient GEMM straight into ``param.grad`` and their
  bias sums with ``np.sum(..., out=...)``; the serial minibatch path
  therefore needs no ``zero_grad`` and no accumulation pass.

Parallel execution: :meth:`Sequential.predict` and :func:`fit` accept a
:class:`repro.runtime.Executor`.  Work shards along the batch axis in
chunks whose boundaries depend only on fixed chunk sizes (never the
worker count) and partial results reduce in input order, so every
backend produces bit-identical outputs.  Large read-only inputs ride
the executor's shared-state plane: ``predict`` publishes the weights
and the input matrix once per worker and maps ``(handle, start, stop)``
range tasks, and the chunked-GEMM ``fit`` path publishes the training
arrays once and maps index shards (only the per-step weights still
ship per minibatch — they change on every optimizer step).  Worker
tasks run on :meth:`Sequential.worker_copy` clones — fresh
layer/gradient state over shared weights — because layers cache
forward state and are therefore not reentrant.

Data-parallel training: with ``data_parallel=True`` (or
``REPRO_DP_FIT=1``) :func:`fit` shards **every** minibatch into
fixed-size gradient shards of :data:`DP_SHARD_ROWS` rows, maps them
across the executor, and merges the partial gradients with a fixed,
ordered binary-tree reduction (:func:`_tree_reduce`).  Shard
boundaries and the tree shape depend only on the shard size — never on
the worker count — so training at 1, 2 or 4 workers on any executor
backend produces bit-identical weights.  Every contraction routes
through the pluggable numeric backend (:mod:`repro.ml.backend`):
``numpy-ref`` is the single-threaded equivalence reference, ``blas``
opens the OpenBLAS threadpool under the same kernels (whose threaded
GEMMs may round differently in the last float bits).  The sharded
paths run their backward passes on clones with private gradients; the
parent zeroes the flat gradient buffer and accumulates into it.
"""

from __future__ import annotations

import copy
import json
import os
import pathlib
from typing import TYPE_CHECKING

import numpy as np

from repro import perf
from repro.ml.backend import (
    active_backend,
    resolve_data_parallel,
    resolve_numeric_backend,
    use_backend,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.runtime import Executor

__all__ = [
    "Parameter",
    "Layer",
    "Dense",
    "Conv1D",
    "Flatten",
    "ReLU",
    "Sigmoid",
    "Sequential",
    "MSELoss",
    "Adam",
    "ADAM_BLOCK",
    "DP_SHARD_ROWS",
    "GRAD_CHUNK_ROWS",
    "fit",
]

#: rows per gradient shard when a minibatch is large enough to chunk.
#: Fixed — never derived from the worker count — so chunk boundaries,
#: and therefore the order gradients accumulate in, are identical for
#: serial, thread and process runs (the bit-equivalence contract).
#: The paper-default minibatch of 64 stays a single shard.
GRAD_CHUNK_ROWS = 4096

#: rows per gradient shard in data-parallel mode.  Small enough that
#: the paper-default minibatch of 64 splits into four shards (so 2 and
#: 4 workers both have parallel work), fixed so shard boundaries — and
#: the reduction tree built over them — never depend on the worker
#: count.
DP_SHARD_ROWS = 16

#: elements per :meth:`Adam.step` block.  At float32 a block's six live
#: arrays (value, gradient, two moments, two scratch) take 1.5 MiB, so
#: they stay in L2 across the step's thirteen passes.  Any size gives
#: the same bits; this one only decides the speed.
ADAM_BLOCK = 65_536


class Parameter:
    """A trainable tensor with its gradient."""

    __slots__ = ("value", "grad")

    def __init__(self, value: np.ndarray) -> None:
        self.value = value
        self.grad = np.zeros_like(value)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def astype(self, dtype: np.dtype | type) -> None:
        """Cast the value and gradient buffers in place."""
        self.value = np.asarray(self.value, dtype=dtype)
        self.grad = np.asarray(self.grad, dtype=dtype)


class Layer:
    """Base class: forward caches what backward needs.

    ``backward`` *overwrites* each parameter's ``grad`` with this
    batch's gradient (it never accumulates), so a training step needs
    no ``zero_grad`` before it.  Paths that sum gradients over several
    backward passes run each pass on a :meth:`worker_copy` and add the
    clones' gradients up themselves.
    """

    #: attributes holding per-call forward/scratch state; cleared on
    #: :meth:`worker_copy` so clones never alias the donor's caches.
    _STATE_ATTRS: tuple[str, ...] = ()

    def parameters(self) -> list[Parameter]:
        return []

    def spec(self) -> dict[str, object]:
        """JSON-serialisable constructor description.

        :meth:`Sequential.save` persists one spec per layer so
        :meth:`Sequential.load` can rebuild the architecture before
        restoring the weights.  Stateless layers need only their type.
        """
        return {"type": type(self).__name__}

    def worker_copy(self) -> "Layer":
        """A clone for one executor task: shared weights, fresh state.

        ``Parameter`` objects are replaced by new ones sharing the
        *value* arrays (read-only during forward/backward) with private
        gradient buffers, so concurrent tasks never write to the same
        memory.
        """
        clone = copy.copy(self)
        for name, attr in vars(self).items():
            if isinstance(attr, Parameter):
                setattr(clone, name, Parameter(attr.value))
        for attr in self._STATE_ATTRS:
            setattr(clone, attr, None)
        return clone

    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError


class Dense(Layer):
    """Fully connected layer: ``y = x @ W + b``.

    Weights use He-uniform initialisation, suitable for the ReLU
    activations that follow most layers here.
    """

    _STATE_ATTRS = ("_input",)

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        scale: float = 1.0,
        dtype: np.dtype | type = np.float64,
    ) -> None:
        limit = scale * np.sqrt(6.0 / in_features)
        self.weight = Parameter(
            rng.uniform(-limit, limit, size=(in_features, out_features)).astype(
                dtype, copy=False
            )
        )
        self.bias = Parameter(np.zeros(out_features, dtype=dtype))
        self._input: np.ndarray | None = None

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]

    def spec(self) -> dict[str, object]:
        in_features, out_features = self.weight.value.shape
        return {
            "type": "Dense",
            "in_features": int(in_features),
            "out_features": int(out_features),
        }

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._input = x
        out = active_backend().matmul(x, self.weight.value)
        out += self.bias.value
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._input is not None, "backward called before forward"
        backend = active_backend()
        backend.matmul(self._input.T, grad, out=self.weight.grad)
        np.sum(grad, axis=0, out=self.bias.grad)
        return backend.matmul(grad, self.weight.value.T)


class Conv1D(Layer):
    """1-D convolution with 'same' zero padding and stride 1.

    Input shape ``(batch, length, in_channels)``; kernel shape
    ``(kernel_size, in_channels, out_channels)``.
    """

    _STATE_ATTRS = (
        "_columns",
        "_padded",
        "_grad_columns",
        "_grad_padded",
    )

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        dtype: np.dtype | type = np.float64,
    ) -> None:
        if kernel_size % 2 != 1:
            raise ValueError("Conv1D requires an odd kernel size for 'same' padding")
        fan_in = kernel_size * in_channels
        limit = np.sqrt(6.0 / fan_in)
        self.kernel_size = kernel_size
        self.weight = Parameter(
            rng.uniform(
                -limit, limit, size=(kernel_size, in_channels, out_channels)
            ).astype(dtype, copy=False)
        )
        self.bias = Parameter(np.zeros(out_channels, dtype=dtype))
        # Persistent scratch, reallocated only when the batch shape or
        # dtype changes (in training: twice per epoch, for the final
        # short batch).  The padded buffers are written only in their
        # interior, so their zero borders survive across batches.
        self._columns: np.ndarray | None = None
        self._padded: np.ndarray | None = None
        self._grad_columns: np.ndarray | None = None
        self._grad_padded: np.ndarray | None = None
        self._batch = 0
        self._input_length = 0
        self._in_channels = in_channels

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]

    def spec(self) -> dict[str, object]:
        return {
            "type": "Conv1D",
            "in_channels": int(self._in_channels),
            "out_channels": int(self.bias.value.shape[0]),
            "kernel_size": int(self.kernel_size),
        }

    def _scratch(self, name: str, shape: tuple[int, ...], dtype: np.dtype, zero: bool = False) -> np.ndarray:
        buffer = getattr(self, name)
        if buffer is None or buffer.shape != shape or buffer.dtype != dtype:
            buffer = np.zeros(shape, dtype=dtype)
            setattr(self, name, buffer)
        elif zero:
            buffer[...] = 0.0
        return buffer

    def forward(self, x: np.ndarray) -> np.ndarray:
        # im2col: gather the kernel_size shifted views of the padded
        # input into one (batch*length, kernel_size*in_channels) matrix
        # so the convolution — and both of its gradients — are single
        # BLAS GEMMs.  numpy's einsum or per-tap batched matmuls run the
        # same contraction orders of magnitude slower.
        pad = self.kernel_size // 2
        batch, length, in_channels = x.shape
        dtype = x.dtype if np.issubdtype(x.dtype, np.floating) else np.dtype(float)
        padded = self._scratch("_padded", (batch, length + 2 * pad, in_channels), dtype)
        padded[:, pad : pad + length, :] = x  # borders stay zero
        columns = self._scratch(
            "_columns", (batch * length, self.kernel_size * in_channels), dtype
        )
        shaped = columns.reshape(batch, length, self.kernel_size * in_channels)
        for offset in range(self.kernel_size):
            shaped[:, :, offset * in_channels : (offset + 1) * in_channels] = padded[
                :, offset : offset + length, :
            ]
        self._batch = batch
        self._input_length = length
        out_channels = self.bias.value.shape[0]
        flat_weight = self.weight.value.reshape(-1, out_channels)
        out = active_backend().matmul(columns, flat_weight)
        out += self.bias.value
        return out.reshape(batch, length, out_channels)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._columns is not None, "backward called before forward"
        pad = self.kernel_size // 2
        batch, length = self._batch, self._input_length
        in_channels = self._in_channels
        out_channels = grad.shape[2]
        flat_grad = np.ascontiguousarray(grad).reshape(batch * length, out_channels)
        backend = active_backend()
        # Parameter gradients are C-contiguous, so the reshape is a view
        # and the GEMM writes straight into the kernel's gradient.
        backend.matmul(
            self._columns.T,
            flat_grad,
            out=self.weight.grad.reshape(-1, out_channels),
        )
        np.sum(flat_grad, axis=0, out=self.bias.grad)
        flat_weight = self.weight.value.reshape(-1, out_channels)
        grad_columns = self._scratch(
            "_grad_columns",
            (batch * length, self.kernel_size * in_channels),
            flat_grad.dtype,
        )
        backend.matmul(flat_grad, flat_weight.T, out=grad_columns)
        shaped = grad_columns.reshape(batch, length, self.kernel_size, in_channels)
        grad_padded = self._scratch(
            "_grad_padded",
            (batch, length + 2 * pad, in_channels),
            flat_grad.dtype,
            zero=True,
        )
        for offset in range(self.kernel_size):
            grad_padded[:, offset : offset + length, :] += shaped[:, :, offset, :]
        # NOTE: a view into persistent scratch — valid until the next
        # backward() on this layer, which is all Sequential needs.
        return grad_padded[:, pad : pad + length, :]


class Flatten(Layer):
    """Collapse all non-batch dimensions."""

    _STATE_ATTRS = ("_shape",)

    def __init__(self) -> None:
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._shape is not None, "backward called before forward"
        return grad.reshape(self._shape)


class ReLU(Layer):
    _STATE_ATTRS = ("_mask",)

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._mask is not None, "backward called before forward"
        # One fused in-place pass (multiplying by the boolean mask)
        # instead of np.where's allocation.  Mutating ``grad`` is safe:
        # upstream layers hand over freshly computed gradient arrays
        # and never read them again.
        if grad.flags.writeable:
            return np.multiply(grad, self._mask, out=grad)
        return grad * self._mask


class Sigmoid(Layer):
    """Logistic activation, f(x) = 1 / (1 + e^-x) (§4.3)."""

    _STATE_ATTRS = ("_output",)

    def __init__(self) -> None:
        self._output: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        dtype = x.dtype if np.issubdtype(x.dtype, np.floating) else np.float64
        out = np.empty_like(x, dtype=dtype)
        positive = x >= 0
        out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
        exp_x = np.exp(x[~positive])
        out[~positive] = exp_x / (1.0 + exp_x)
        self._output = out
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._output is not None, "backward called before forward"
        return grad * self._output * (1.0 - self._output)


class Sequential(Layer):
    """A stack of layers applied in order."""

    def __init__(self, *layers: Layer) -> None:
        self.layers = list(layers)

    def parameters(self) -> list[Parameter]:
        return [param for layer in self.layers for param in layer.parameters()]

    def worker_copy(self) -> "Sequential":
        """A clone for one executor task (see :meth:`Layer.worker_copy`)."""
        return Sequential(*(layer.worker_copy() for layer in self.layers))

    def astype(self, dtype: np.dtype | type) -> "Sequential":
        """Cast every parameter (values and gradients) to ``dtype``."""
        for param in self.parameters():
            param.astype(dtype)
        return self

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | os.PathLike[str]) -> pathlib.Path:
        """Serialise the architecture and weights to one ``.npz`` file.

        The file stores a JSON layer-spec list plus every parameter
        array verbatim, so :meth:`load` rebuilds a model whose forward
        pass is **bit-identical** to this one — numpy's npz container
        round-trips array bytes exactly.  Optimizer state is not
        persisted; a loaded model predicts, or trains from step 0.
        """
        path = pathlib.Path(path)
        arch = json.dumps([layer.spec() for layer in self.layers])
        arrays = {
            f"param_{i}": param.value for i, param in enumerate(self.parameters())
        }
        with open(path, "wb") as handle:
            np.savez(handle, arch=arch, **arrays)
        return path

    @classmethod
    def load(cls, path: str | os.PathLike[str]) -> "Sequential":
        """Rebuild a model saved by :meth:`save`.

        Raises :class:`ValueError` for unknown layer types or a
        parameter count that does not match the stored architecture
        (a truncated or foreign file).
        """
        with np.load(path, allow_pickle=False) as data:
            specs = json.loads(str(data["arch"][()]))
            rng = np.random.default_rng(0)  # placeholder init, overwritten below
            layers: list[Layer] = []
            for spec in specs:
                kind = spec.get("type")
                if kind == "Dense":
                    layers.append(
                        Dense(int(spec["in_features"]), int(spec["out_features"]), rng)
                    )
                elif kind == "Conv1D":
                    layers.append(
                        Conv1D(
                            int(spec["in_channels"]),
                            int(spec["out_channels"]),
                            int(spec["kernel_size"]),
                            rng,
                        )
                    )
                elif kind == "Flatten":
                    layers.append(Flatten())
                elif kind == "ReLU":
                    layers.append(ReLU())
                elif kind == "Sigmoid":
                    layers.append(Sigmoid())
                else:
                    raise ValueError(f"unknown layer type {kind!r} in {path}")
            model = cls(*layers)
            parameters = model.parameters()
            stored = sum(1 for name in data.files if name.startswith("param_"))
            if stored != len(parameters):
                raise ValueError(
                    f"{path} stores {stored} parameters but the architecture "
                    f"declares {len(parameters)}"
                )
            for i, param in enumerate(parameters):
                value = np.ascontiguousarray(data[f"param_{i}"])
                param.value = value
                param.grad = np.zeros_like(value)
        return model

    def predict(
        self,
        x: np.ndarray,
        batch_size: int = 1024,
        executor: "Executor | None" = None,
    ) -> np.ndarray:
        """Forward pass in batches (no gradient bookkeeping needed).

        Batch boundaries depend only on ``batch_size``, so mapping the
        batches across an executor returns bit-identical results for
        every backend.  The weights and the input matrix are published
        on the executor's shared-state plane — shipped once per process
        worker — and the tasks carry only ``(handle, start, stop)``
        ranges; each task forwards through a :meth:`worker_copy`
        because layers cache forward state.
        """
        n = x.shape[0]
        starts = range(0, n, batch_size)
        if executor is None or executor.workers <= 1 or n <= batch_size:
            chunks = [self.forward(x[start : start + batch_size]) for start in starts]
        else:
            context = executor.context
            # A state-free clone: publishing must not ship whatever
            # forward/scratch caches this model accumulated in training.
            handle = context.publish(
                "nn.predict", {"model": self.worker_copy(), "x": x}
            )
            try:
                chunks = executor.map(
                    _predict_shard,
                    [(handle, start, min(start + batch_size, n)) for start in starts],
                )
            finally:
                context.retire("nn.predict")
        return np.concatenate(chunks, axis=0) if chunks else np.empty((0,))


def _predict_shard(task: "tuple[object, int, int]") -> np.ndarray:
    """Worker body: forward one batch range through a private clone.

    The published model object is shared by every task that lands on a
    worker (and by every thread of the thread backend), so each call
    clones it again — layers cache forward state and are not reentrant.
    """
    handle, start, stop = task
    shared = handle.resolve()
    model: Sequential = shared["model"]
    return model.worker_copy().forward(shared["x"][start:stop])


class MSELoss:
    """Mean squared error, 1/N * sum (y - f(x))^2 (§4.3)."""

    def __init__(self) -> None:
        self._diff: np.ndarray | None = None

    def forward(self, prediction: np.ndarray, target: np.ndarray) -> float:
        self._diff = prediction - target
        return float(np.mean(self._diff**2))

    def backward(self) -> np.ndarray:
        assert self._diff is not None, "backward called before forward"
        return 2.0 * self._diff / self._diff.size


class Adam:
    """Adam optimizer (Kingma & Ba), lr=0.001 as in the paper.

    Construction *adopts* the parameters: their current values and
    gradients are copied into one contiguous value buffer and one
    contiguous gradient buffer, and each ``Parameter.value``/``.grad``
    is re-pointed at a reshaped view of its slice.  Code that writes a
    parameter in place (``param.grad[...] = g``, ``param.value -= d``)
    keeps working; rebinding ``param.value``/``param.grad`` to a new
    array after construction detaches it from the optimizer.

    The step walks the buffers in blocks of :data:`ADAM_BLOCK` elements
    and runs the same thirteen in-place elementwise passes on each
    block, reusing two block-sized scratch arrays, so a step performs
    no heap allocations and its Python overhead scales with the block
    count rather than the parameter count.  The arithmetic matches the
    textbook formulation term for term (up to the scalar folding noted
    in :meth:`step`).
    """

    def __init__(
        self,
        parameters: list[Parameter],
        learning_rate: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        self.parameters = parameters
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._step = 0
        dtype = (
            np.result_type(*(p.value for p in parameters))
            if parameters
            else np.dtype(np.float64)
        )
        total = sum(p.value.size for p in parameters)
        self._value = np.empty(total, dtype=dtype)
        self._grad = np.empty(total, dtype=dtype)
        offset = 0
        for param in parameters:
            size, shape = param.value.size, param.value.shape
            value = self._value[offset : offset + size].reshape(shape)
            grad = self._grad[offset : offset + size].reshape(shape)
            value[...] = param.value
            grad[...] = param.grad
            param.value, param.grad = value, grad
            offset += size
        self._m = np.zeros(total, dtype=dtype)
        self._v = np.zeros(total, dtype=dtype)
        self._block = ADAM_BLOCK
        width = min(self._block, total)
        self._scratch = np.empty(width, dtype=dtype)
        self._scratch2 = np.empty(width, dtype=dtype)

    def zero_grad(self) -> None:
        self._grad.fill(0.0)

    def step(self) -> None:
        self._step += 1
        bias1 = 1.0 - self.beta1**self._step
        bias2 = 1.0 - self.beta2**self._step
        # Scalar folding: (m / bias1) * lr == m * (lr / bias1) and
        # sqrt(v / bias2) == sqrt(v) / sqrt(bias2), each saving a full
        # memory pass over every parameter — the step is memory-bound.
        step_scale = self.learning_rate / bias1
        inv_sqrt_bias2 = 1.0 / np.sqrt(bias2)
        beta1, beta2, epsilon = self.beta1, self.beta2, self.epsilon
        total = self._value.size
        for lo in range(0, total, self._block):
            hi = min(lo + self._block, total)
            value = self._value[lo:hi]
            grad = self._grad[lo:hi]
            m = self._m[lo:hi]
            v = self._v[lo:hi]
            scratch = self._scratch[: hi - lo]
            scratch2 = self._scratch2[: hi - lo]
            # m = beta1 * m + (1 - beta1) * grad
            np.multiply(m, beta1, out=m)
            np.multiply(grad, 1.0 - beta1, out=scratch)
            m += scratch
            # v = beta2 * v + (1 - beta2) * grad**2
            np.multiply(v, beta2, out=v)
            np.multiply(grad, grad, out=scratch)
            scratch *= 1.0 - beta2
            v += scratch
            # value -= learning_rate * (m / bias1) / (sqrt(v / bias2) + eps)
            np.sqrt(v, out=scratch)
            scratch *= inv_sqrt_bias2
            scratch += epsilon
            np.multiply(m, step_scale, out=scratch2)
            scratch2 /= scratch
            value -= scratch2


class _GradShard:
    """Picklable task: loss + parameter gradients for one index shard.

    The training data rides in the worker context (published once per
    worker); the weights must still ship per minibatch — they change
    on every optimizer step — so the task holds a state-free
    :meth:`Sequential.worker_copy` and the mapped items are just index
    arrays.  The chunked im2col GEMMs run on a further per-call clone
    whose gradient buffers are private, so concurrent shards never
    write to shared memory; the parent accumulates the returned
    gradients in shard order.
    """

    def __init__(
        self,
        model: Sequential,
        total_elements: int,
        data: object,
        numeric_backend: str = "numpy-ref",
    ) -> None:
        # State-free copy: pickling to process workers ships only the
        # weights, not the donor's per-batch scratch caches.
        self.model = model.worker_copy()
        self.total_elements = total_elements
        #: a SharedHandle to {"x", "y"}, or a direct (x, y) tuple on
        #: the inline (no-executor / single-worker) path.
        self.data = data
        #: numeric backend the shard GEMMs run on — carried in the task
        #: so process workers activate the same kernels as the parent.
        self.numeric_backend = numeric_backend

    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if isinstance(self.data, tuple):
            return self.data
        shared = self.data.resolve()
        return shared["x"], shared["y"]

    def __call__(self, idx: np.ndarray) -> tuple[float, list[np.ndarray]]:
        with use_backend(self.numeric_backend):
            x, y = self._arrays()
            x_shard, y_shard = x[idx], y[idx]
            clone = self.model.worker_copy()
            prediction = clone.forward(x_shard)
            diff = prediction - y_shard
            # d(mean over the FULL batch)/d(prediction), restricted to
            # this shard — summing shard gradients in order reproduces
            # the full-batch gradient.
            clone.backward(2.0 * diff / self.total_elements)
            sse = float(np.sum(diff * diff))
            return sse, [param.grad for param in clone.parameters()]


def _tree_reduce(
    results: list[tuple[float, list[np.ndarray]]],
) -> tuple[float, list[np.ndarray]]:
    """Fixed, ordered binary-tree reduction of ``(sse, grads)`` shards.

    The tree shape depends only on ``len(results)`` — adjacent pairs
    merge left←right each round, an odd tail carries — never on how
    many workers produced the shards.  Floating-point addition is not
    associative, so pinning the shape (rather than, say, reducing in
    completion order) is what keeps a data-parallel fit bit-identical
    across worker counts and executor backends.
    """
    while len(results) > 1:
        merged: list[tuple[float, list[np.ndarray]]] = []
        for left in range(0, len(results) - 1, 2):
            sse_l, grads_l = results[left]
            sse_r, grads_r = results[left + 1]
            for grad_l, grad_r in zip(grads_l, grads_r):
                grad_l += grad_r
            merged.append((sse_l + sse_r, grads_l))
        if len(results) % 2:
            merged.append(results[-1])
        results = merged
    return results[0]


def fit(
    model: Sequential,
    x: np.ndarray,
    y: np.ndarray,
    epochs: int = 100,
    batch_size: int = 64,
    learning_rate: float = 0.001,
    seed: int = 0,
    verbose: bool = False,
    dtype: np.dtype | type | None = None,
    executor: "Executor | None" = None,
    grad_chunk_rows: int = GRAD_CHUNK_ROWS,
    data_parallel: bool | None = None,
    dp_shard_rows: int = DP_SHARD_ROWS,
    numeric_backend: str | None = None,
) -> list[float]:
    """Train ``model`` with MSE + Adam; returns the per-epoch losses.

    ``dtype`` optionally casts the model parameters and the data before
    training (``np.float32`` halves the memory traffic of every layer).

    Minibatches larger than the shard size split into fixed-size shards
    whose forward/backward GEMMs map across ``executor``, with
    gradients merged in a fixed order.  Two sharding regimes share the
    machinery:

    - **Legacy** (``data_parallel`` off): shard size ``grad_chunk_rows``
      (4096 — idle at the paper's batch size of 64), gradients folded
      sequentially in shard order; bit-compatible with every recorded
      baseline.
    - **Data-parallel** (``data_parallel`` on, resolved via
      ``REPRO_DP_FIT`` when ``None``): shard size ``dp_shard_rows``
      (16), so the paper's 64-row minibatches fan out as 4 gradient
      shards per step, merged by :func:`_tree_reduce`.

    In both regimes shard boundaries depend only on the shard size —
    never on the worker count — so results are bit-identical whether
    the shards run serially or across any executor backend at any
    worker count.  ``numeric_backend`` selects the GEMM kernels for the
    whole fit (parent and shard workers alike).
    """
    if x.shape[0] != y.shape[0]:
        raise ValueError("x and y must have the same number of samples")
    if grad_chunk_rows < 1:
        raise ValueError(f"grad_chunk_rows must be >= 1, got {grad_chunk_rows}")
    if dp_shard_rows < 1:
        raise ValueError(f"dp_shard_rows must be >= 1, got {dp_shard_rows}")
    dp = resolve_data_parallel(data_parallel)
    backend_name = resolve_numeric_backend(numeric_backend)
    shard_rows = dp_shard_rows if dp else grad_chunk_rows
    if dtype is not None:
        model.astype(dtype)
        x = np.asarray(x, dtype=dtype)
        y = np.asarray(y, dtype=dtype)
    rng = np.random.default_rng(seed)
    optimizer = Adam(model.parameters(), learning_rate=learning_rate)
    parameters = model.parameters()
    loss_fn = MSELoss()
    history: list[float] = []
    n = x.shape[0]
    #: y elements per sample, for the full-batch mean normalisation.
    per_row = int(np.prod(y.shape[1:])) if y.ndim > 1 else 1
    #: bytes a single full gradient set occupies — what each extra
    #: shard adds to the reduction traffic.
    param_bytes = sum(p.value.nbytes for p in parameters)
    # When minibatches will shard across a parallel executor, publish
    # the training data once — the per-batch maps then carry only the
    # shard index arrays plus the (necessarily fresh) weights.
    data: object = (x, y)
    context = None
    if (
        executor is not None
        and executor.workers > 1
        and min(batch_size, n) > shard_rows
    ):
        context = executor.context
        data = context.publish("nn.fit.data", {"x": x, "y": y})
    try:
        with use_backend(backend_name):
            for epoch in range(epochs):
                order = rng.permutation(n)
                total = 0.0
                batches = 0
                for start in range(0, n, batch_size):
                    idx = order[start : start + batch_size]
                    if len(idx) <= shard_rows:
                        # backward overwrites every gradient: no zeroing.
                        prediction = model.forward(x[idx])
                        loss = loss_fn.forward(prediction, y[idx])
                        model.backward(loss_fn.backward())
                    else:
                        optimizer.zero_grad()
                        total_elements = len(idx) * per_row
                        idx_shards = [
                            idx[lo : lo + shard_rows]
                            for lo in range(0, len(idx), shard_rows)
                        ]
                        task = _GradShard(
                            model, total_elements, data, backend_name
                        )
                        with perf.phase("dp_map"):
                            if executor is None:
                                results = [task(shard) for shard in idx_shards]
                            else:
                                results = executor.map(task, idx_shards)
                        perf.add_counter(
                            "runtime.grad_shards", len(idx_shards)
                        )
                        perf.add_counter(
                            "runtime.reduce_bytes",
                            (len(idx_shards) - 1) * param_bytes,
                        )
                        if dp:
                            # Fixed-shape tree merge: bit-identical at
                            # any worker count on any backend.
                            loss, grads = _tree_reduce(results)
                            for param, grad in zip(parameters, grads):
                                param.grad += grad
                        else:
                            # Legacy sequential fold, bit-compatible
                            # with the recorded baselines.
                            loss = 0.0
                            for sse, grads in results:
                                loss += sse
                                for param, grad in zip(parameters, grads):
                                    param.grad += grad
                        loss /= total_elements
                    optimizer.step()
                    total += loss
                    batches += 1
                history.append(total / max(batches, 1))
                if verbose:  # pragma: no cover - diagnostic output
                    print(
                        f"epoch {epoch + 1}/{epochs}: loss={history[-1]:.5f}"
                    )
    finally:
        if context is not None:
            context.retire("nn.fit.data")
    return history
