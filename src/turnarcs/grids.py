"""Point grids on spheres for simulation output.

Grid kinds: a colatitude/longitude grid of face centers on the 2-sphere, a
3-sphere slice at fixed fourth coordinate (a scaled 2-sphere), a d-sphere
section with the last d-2 coordinates pinned to zero, and an explicit point
list read from a file.  Points are emitted row-major with colatitude varying
slowest.  With an even longitude count, the face centers pair up as exact
antipodes: the later of each pair is the negation of the earlier.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridError",
    "LatLonGrid",
    "Slice3Grid",
    "SectionGrid",
    "PointListGrid",
    "Grid",
    "build_grid",
    "parse_grid",
]


def _spec_number(x: float) -> str:
    """x as written in a spec string: the short :g form when it reads back as
    x, else repr, so that parsing a spec string reproduces the run."""
    short = f"{x:g}"
    return short if float(short) == x else repr(float(x))


class GridError(ValueError):
    """Malformed grid specification or point-list file."""


@dataclass(frozen=True)
class LatLonGrid:
    n_colat: int
    n_lon: int
    d = 2

    def describe(self) -> str:
        return f"latlon:{self.n_colat}x{self.n_lon}"


@dataclass(frozen=True)
class Slice3Grid:
    w: float
    n_colat: int
    n_lon: int
    d = 3

    def describe(self) -> str:
        return f"slice3:{_spec_number(self.w)}:{self.n_colat}x{self.n_lon}"


@dataclass(frozen=True)
class SectionGrid:
    d: int
    n_colat: int
    n_lon: int

    def describe(self) -> str:
        return f"section:{self.d}:{self.n_colat}x{self.n_lon}"


@dataclass(frozen=True)
class PointListGrid:
    path: str
    d: int | None = None

    def describe(self) -> str:
        return f"points:{self.path}"


@dataclass
class Grid:
    d: int
    points: np.ndarray        # (npts, d+1) unit vectors
    coords: np.ndarray        # leading output columns per point
    coord_names: list


def _latlon_faces(n_colat: int, n_lon: int):
    """Colatitudes, longitudes and unit points of the face centers.

    With an even longitude count the center (i, j) and the center
    (n_colat-1-i, j + n_lon/2 mod n_lon) are antipodes; the later of each
    pair in row-major order (the southern one, or on an equator ring the one
    of larger longitude) is written as the exact negation of the earlier,
    which separate sin/cos calls do not give, so the points pair up as exact
    antipodes (see simulator._antipodal_pairs)."""
    if n_colat < 1 or n_lon < 1:
        raise GridError("face counts must be >= 1")
    colat = (np.arange(n_colat) + 0.5) * np.pi / n_colat
    lon = (np.arange(n_lon) + 0.5) * 2.0 * np.pi / n_lon
    cc, ll = np.meshgrid(colat, lon, indexing="ij")
    cc = cc.ravel()
    ll = ll.ravel()
    xyz = np.column_stack(
        [np.sin(cc) * np.cos(ll), np.sin(cc) * np.sin(ll), np.cos(cc)]
    )
    if n_lon % 2 == 0:
        index = np.arange(cc.size)
        antipode = np.roll(index.reshape(n_colat, n_lon)[::-1], -(n_lon // 2), axis=1).ravel()
        later = antipode < index
        xyz[later] = -xyz[antipode[later]]
    return cc, ll, xyz


def build_grid(spec) -> Grid:
    """Materialize a grid spec into unit points plus plot-ready coordinates."""
    if isinstance(spec, LatLonGrid):
        cc, ll, xyz = _latlon_faces(spec.n_colat, spec.n_lon)
        return Grid(2, xyz, np.column_stack([cc, ll]), ["colat", "lon"])
    if isinstance(spec, Slice3Grid):
        if not -1.0 < spec.w < 1.0:
            raise GridError(f"slice coordinate must satisfy |w| < 1, got {spec.w}")
        cc, ll, xyz = _latlon_faces(spec.n_colat, spec.n_lon)
        scale = np.sqrt(1.0 - spec.w * spec.w)
        points = np.column_stack([scale * xyz, np.full(cc.size, spec.w)])
        coords = np.column_stack([cc, ll, np.full(cc.size, spec.w)])
        return Grid(3, points, coords, ["colat", "lon", "w"])
    if isinstance(spec, SectionGrid):
        if spec.d < 3:
            raise GridError("section grids need sphere dimension >= 3")
        cc, ll, xyz = _latlon_faces(spec.n_colat, spec.n_lon)
        points = np.zeros((cc.size, spec.d + 1))
        points[:, :3] = xyz
        return Grid(spec.d, points, np.column_stack([cc, ll]), ["colat", "lon"])
    if isinstance(spec, PointListGrid):
        points = _read_point_list(spec.path, spec.d)
        names = [f"x{i}" for i in range(points.shape[1])]
        return Grid(points.shape[1] - 1, points, points.copy(), names)
    raise GridError(f"unknown grid spec {spec!r}")


def _read_point_list(path: str, d: int | None) -> np.ndarray:
    rows = []
    try:
        handle = open(path)
    except OSError as exc:
        raise GridError(f"cannot open point list {path}: {exc}") from exc
    with handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.replace(",", " ").split()
            try:
                row = [float(v) for v in parts]
            except ValueError as exc:
                raise GridError(f"{path}:{lineno}: not a numeric row: {text!r}") from exc
            if rows and len(row) != len(rows[0][1]):
                raise GridError(
                    f"{path}:{lineno}: expected {len(rows[0][1])} coordinates, got {len(row)}"
                )
            rows.append((lineno, row))
    if not rows:
        raise GridError(f"{path}: no points found")
    if d is not None and len(rows[0][1]) != d + 1:
        raise GridError(
            f"{path}: rows have {len(rows[0][1])} coordinates, expected {d + 1}"
        )
    points = np.array([row for _, row in rows])
    bad = np.nonzero(~np.all(np.isfinite(points), axis=1))[0]
    if bad.size:
        raise GridError(f"{path}:{rows[bad[0]][0]}: non-finite coordinate")
    norms = np.linalg.norm(points, axis=1)
    off = np.nonzero(np.abs(norms - 1.0) > 1e-6)[0]
    if off.size:
        lineno = rows[off[0]][0]
        raise GridError(
            f"{path}:{lineno}: point norm {norms[off[0]]:.9g} is not 1 within 1e-6"
        )
    # rows that are unit vectors up to the rounding of their norm are taken as
    # written, so a file of normalized points reads back bit for bit
    norms[np.abs(norms - 1.0) <= points.shape[1] * np.finfo(float).eps] = 1.0
    return points / norms[:, None]


def parse_grid(text: str, d: int | None = None):
    """Parse CLI grid strings: latlon:NCxNL, slice3:W:NCxNL, section:D:NCxNL,
    points:FILE."""
    kind, _, rest = text.partition(":")
    try:
        if kind == "latlon":
            nc, nl = _faces(rest)
            return LatLonGrid(nc, nl)
        if kind == "slice3":
            w_text, _, faces = rest.partition(":")
            nc, nl = _faces(faces)
            return Slice3Grid(float(w_text), nc, nl)
        if kind == "section":
            d_text, _, faces = rest.partition(":")
            nc, nl = _faces(faces)
            return SectionGrid(int(d_text), nc, nl)
        if kind == "points":
            if not rest:
                raise GridError("points grid needs a file path")
            return PointListGrid(rest, d)
    except GridError:
        raise
    except ValueError as exc:
        raise GridError(f"malformed grid spec {text!r}: {exc}") from exc
    raise GridError(f"unknown grid kind {kind!r} (expected latlon, slice3, section, points)")


def _faces(text: str):
    nc, sep, nl = text.partition("x")
    if not sep:
        raise GridError(f"face counts must look like NCxNL, got {text!r}")
    return int(nc), int(nl)
