"""Seeded synthetic inputs shaped like the paper's datasets.

The MNIST-shaped set draws 28x28 stroke images: each class has a random
skeleton (a polyline of control points), each class has several modes
(perturbed skeletons, some blended with another class's skeleton so that
classes overlap), and each sample is a mode shifted by up to SHIFT pixels,
rescaled, and corrupted by pixel noise. Pixels are quantised to uint8 and
then scaled to [0, 1] exactly as the IDX loader does, so that many
responses tie (most pixels are exactly 0), as they do on real MNIST.

The knobs below were tuned so that no method saturates: at k=32 biohash
reaches about 50% mAP under mnist_label (the paper reports 55% on MNIST),
and flyhash and pcahash 83-90% under mnist_euclid100.
"""

from __future__ import annotations

import numpy as np

SIDE = 28
CLASSES = 10
MODES_PER_CLASS = 6
CONTROL_POINTS = 5
SHIFT = 1  # samples move by up to this many pixels in each direction
MODE_JITTER = 1.5  # control-point offset between modes of one class, pixels
BLEND = 0.25  # share of another class's skeleton mixed into a blended mode
BLENDED_MODES = 2  # modes per class that are blended
STROKE_SIGMA = 1.3  # stroke half-width, pixels
NOISE = 0.12  # pixel noise before thresholding, in units of full intensity
FLOOR = 0.25  # values below this are clipped to 0, like MNIST's background


def _render(points: np.ndarray) -> np.ndarray:
    """Stroke image of a polyline: Gaussian pen along 12 steps per segment."""
    steps = np.linspace(0.0, 1.0, 12, endpoint=False)
    seg = points[:-1, None, :] + steps[None, :, None] * (points[1:] - points[:-1])[:, None, :]
    pen = np.concatenate([seg.reshape(-1, 2), points[-1:]])
    yy, xx = np.mgrid[0:SIDE, 0:SIDE]
    img = np.zeros((SIDE, SIDE))
    for py, px in pen:
        img = np.maximum(img, np.exp(-((yy - py) ** 2 + (xx - px) ** 2)
                                     / (2 * STROKE_SIGMA ** 2)))
    return img


def _templates(rng: np.random.Generator) -> np.ndarray:
    """Every shifted image of every mode, stored class by class."""
    skeletons = rng.uniform(6.0, SIDE - 7.0, size=(CLASSES, CONTROL_POINTS, 2))
    images = []
    for cls in range(CLASSES):
        for mode in range(MODES_PER_CLASS):
            pts = skeletons[cls] + rng.normal(0.0, MODE_JITTER, size=(CONTROL_POINTS, 2))
            img = _render(pts)
            if mode < BLENDED_MODES:
                other = (cls + 1 + rng.integers(CLASSES - 1)) % CLASSES
                img = (1 - BLEND) * img + BLEND * _render(skeletons[other])
            img /= img.max()
            for dy in range(-SHIFT, SHIFT + 1):
                for dx in range(-SHIFT, SHIFT + 1):
                    images.append(np.roll(img, (dy, dx), axis=(0, 1)).ravel())
    return np.asarray(images)


def mnist_like(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, 784) float32 pixels in [0, 1] from uint8 levels, and (n,) labels.

    Every class gets n // CLASSES rows (the remainder goes to the first
    classes), so per-class query sampling always finds enough rows.
    """
    rng = np.random.default_rng(seed)
    templates = _templates(rng)
    labels = np.arange(n) % CLASSES
    rng.shuffle(labels)
    per_class = len(templates) // CLASSES
    pick = labels * per_class + rng.integers(per_class, size=n)
    scale = rng.uniform(0.7, 1.2, size=(n, 1))
    x = templates[pick] * scale + rng.normal(0.0, NOISE, size=(n, SIDE * SIDE))
    x[x < FLOOR] = 0.0
    pixels = np.clip(np.rint(x * 255.0), 0, 255).astype(np.uint8)
    return pixels.astype(np.float32) / np.float32(255.0), labels.astype(np.int64)
