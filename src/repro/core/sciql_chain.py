"""The TELEIOS processing chain: every stage runs inside the array DBMS.

Mirrors §3.1 faithfully:

* **loading** — raw imagery enters through the Data Vault (HRIT driver) or
  a direct array registration,
* **cropping** — an array-slice SELECT (``FROM raw[i0:i1][j0:j1]``),
* **georeferencing** — precalculated polynomial source indices stored as
  arrays (``geo_x`` / ``geo_y``), applied with an array-element-access
  INSERT...SELECT,
* **classification** — the Figure 4 query (structural 3x3 grouping, CASE
  thresholds), generalised with per-pixel day/night-interpolated
  threshold arrays,
* **output generation** — fire pixels selected by SQL, exported as WKT
  polygon hotspots.

The verbatim Figure 4 text is available via :func:`figure4_query` and is
executed as-is in the test suite.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

import numpy as np

from repro.arraydb import MonetDB
from repro.arraydb.array import Dimension, SciQLArray
from repro.arraydb.types import DOUBLE
from repro.core.legacy import ChainInput, _Chain, vectorize_confidence
from repro.core.thresholds import threshold_grids
from repro.seviri.geo import GeoReference
from repro.seviri.hrit import (
    HRITDriver,
    image_metadata,
    read_hrit_image,
    segment_paths_for,
)
from repro.seviri.scene import SceneImage
from repro.seviri.solar import solar_zenith_deg


def figure4_query(
    t039_array: str = "hrit_T039_image_array",
    t108_array: str = "hrit_T108_image_array",
) -> str:
    """The hotspot-detection query exactly as printed in Figure 4 (with
    the paper's ``v018_mean`` typo corrected to ``v108_mean``)."""
    return f"""
SELECT [x], [y],
CASE
WHEN v039 > 310 AND v039 - v108 > 10 AND v039_std_dev > 4 AND
v108_std_dev < 2
THEN 2
WHEN v039 > 310 AND v039 - v108 > 8 AND v039_std_dev > 2.5 AND
v108_std_dev < 2
THEN 1
ELSE 0
END AS confidence
FROM (
SELECT [x], [y], v039, v108,
SQRT( v039_sqr_mean - v039_mean * v039_mean ) AS v039_std_dev,
SQRT( v108_sqr_mean - v108_mean * v108_mean ) AS v108_std_dev
FROM (
SELECT [x], [y], v039, v108,
AVG( v039 ) AS v039_mean, AVG( v039 * v039 ) AS v039_sqr_mean,
AVG( v108 ) AS v108_mean, AVG( v108 * v108 ) AS v108_sqr_mean
FROM (
SELECT [T039.x], [T039.y], T039.v AS v039, T108.v AS v108
FROM {t039_array} AS T039
JOIN {t108_array} AS T108
ON T039.x = T108.x AND T039.y = T108.y
) AS image_array
GROUP BY image_array[x-1:x+2][y-1:y+2]
) AS tmp1
) AS tmp2
"""


#: The production classification query: same shape as Figure 4, but the
#: thresholds come from per-pixel arrays (day/night interpolation).
_CLASSIFY_SQL = """
SELECT [x], [y],
CASE
WHEN v039 > th_t039 AND v039 - v108 > th_diff_f AND
     v039_std_dev > th_s039_f AND v108_std_dev < th_s108
THEN 2
WHEN v039 > th_t039 AND v039 - v108 > th_diff_p AND
     v039_std_dev > th_s039_p AND v108_std_dev < th_s108
THEN 1
ELSE 0
END AS confidence
FROM (
  SELECT [x], [y], v039, v108,
    th_t039, th_diff_f, th_diff_p, th_s039_f, th_s039_p, th_s108,
    SQRT( v039_sqr_mean - v039_mean * v039_mean ) AS v039_std_dev,
    SQRT( v108_sqr_mean - v108_mean * v108_mean ) AS v108_std_dev
  FROM (
    SELECT [x], [y], v039, v108,
      th_t039, th_diff_f, th_diff_p, th_s039_f, th_s039_p, th_s108,
      AVG( v039 ) AS v039_mean, AVG( v039 * v039 ) AS v039_sqr_mean,
      AVG( v108 ) AS v108_mean, AVG( v108 * v108 ) AS v108_sqr_mean
    FROM (
      SELECT [T039.x], [T039.y], T039.v AS v039, T108.v AS v108,
        TH.t039_min AS th_t039,
        TH.diff_fire AS th_diff_f, TH.diff_potential AS th_diff_p,
        TH.std039_fire AS th_s039_f, TH.std039_potential AS th_s039_p,
        TH.std108_max AS th_s108
      FROM geo_T039 AS T039
      JOIN geo_T108 AS T108 ON T039.x = T108.x AND T039.y = T108.y
      JOIN thresholds AS TH ON T039.x = TH.x AND T039.y = TH.y
    ) AS image_array
    GROUP BY image_array[x-1:x+2][y-1:y+2]
  ) AS tmp1
) AS tmp2
"""


class SciQLChain(_Chain):
    """The in-DBMS processing chain of the paper."""

    name = "sciql"

    def __init__(
        self,
        georeference: GeoReference,
        db: Optional[MonetDB] = None,
        use_vault: bool = True,
        cloud_mask: bool = True,
    ) -> None:
        super().__init__()
        self.georeference = georeference
        self.db = db if db is not None else MonetDB()
        self.use_vault = use_vault
        self.cloud_mask = cloud_mask
        if use_vault:
            self.db.vault.register_driver(HRITDriver())
        self._setup_static_arrays()

    # -- one-time setup ------------------------------------------------------

    def _setup_static_arrays(self) -> None:
        """Create the static arrays: georeference lookup + work arrays."""
        target = self.georeference.target
        raw = self.georeference.raw
        window = self.georeference.crop_window()
        self._window = window
        nx, ny = target.nx, target.ny
        gx, gy = self.georeference.source_indices()
        self.db.register_array("geo_x", gx, attr_name="v")
        self.db.register_array("geo_y", gy, attr_name="v")
        # Cropped band arrays live in *global raw coordinates* so that the
        # precalculated geo_x/geo_y indices address them directly.
        i_lo, i_hi, j_lo, j_hi = window
        for band in ("T039", "T108"):
            cropped = SciQLArray(
                f"cropped_{band}",
                [Dimension("x", i_lo, i_hi), Dimension("y", j_lo, j_hi)],
                [("v", DOUBLE)],
            )
            self.db.catalog.create(cropped, replace=True)
            geo = SciQLArray(
                f"geo_{band}",
                [Dimension("x", 0, nx), Dimension("y", 0, ny)],
                [("v", DOUBLE)],
            )
            self.db.catalog.create(geo, replace=True)
        thresholds = SciQLArray(
            "thresholds",
            [Dimension("x", 0, nx), Dimension("y", 0, ny)],
            [
                ("t039_min", DOUBLE),
                ("diff_fire", DOUBLE),
                ("diff_potential", DOUBLE),
                ("std039_fire", DOUBLE),
                ("std039_potential", DOUBLE),
                ("std108_max", DOUBLE),
            ],
        )
        self.db.catalog.create(thresholds, replace=True)

    # -- per-acquisition stages ------------------------------------------

    def _decode(self, run) -> None:
        """Bring the two raw band images into the catalog."""
        run.timestamp, run.sensor = self._ingest(run.input)

    def _ingest(
        self, chain_input: ChainInput
    ) -> Tuple[object, str]:
        """Returns (timestamp, sensor_name)."""
        if isinstance(chain_input, SceneImage):
            self.db.register_array("raw_T039", chain_input.t039)
            self.db.register_array("raw_T108", chain_input.t108)
            return chain_input.timestamp, chain_input.sensor_name
        paths039, paths108 = chain_input
        if self.use_vault:
            for name, paths in (
                ("raw_T039", paths039),
                ("raw_T108", paths108),
            ):
                if self.db.vault.is_attached(name):
                    self.db.vault.detach(name, drop_object=True)
                # A directory covers all segments of the band; an
                # explicit path list covers exactly one image (the
                # monitor's archive mixes many images per directory).
                self.db.vault.attach(paths, name=name)
            # Read just the metadata for timestamp/sensor (cheap header
            # scan — the pixel loads stay lazy until the crop SELECT).
            first = paths039 if isinstance(paths039, str) else paths039[0]
            if os.path.isdir(str(first)):
                seg_files = segment_paths_for(str(first))
            else:
                seg_files = [str(first)]
            header = image_metadata(seg_files)[0]
            return header.timestamp, header.sensor
        header, t039 = read_hrit_image(list(paths039))
        _h, t108 = read_hrit_image(list(paths108))
        self.db.register_array("raw_T039", t039)
        self.db.register_array("raw_T108", t108)
        return header.timestamp, header.sensor

    def _crop(self, run) -> None:
        i_lo, i_hi, j_lo, j_hi = self._window
        for band in ("T039", "T108"):
            self.db.execute(
                f"INSERT INTO cropped_{band} "
                f"SELECT [x], [y], v FROM raw_{band}"
                f"[{i_lo}:{i_hi}][{j_lo}:{j_hi}]"
            )

    def _georeference(self, run) -> None:
        for band in ("T039", "T108"):
            self.db.execute(
                f"INSERT INTO geo_{band} "
                f"SELECT [GX.x], [GX.y], cropped_{band}[GX.v][GY.v] "
                f"FROM geo_x AS GX JOIN geo_y AS GY "
                f"ON GX.x = GY.x AND GX.y = GY.y"
            )
        if self.cloud_mask:
            # The "cloud-masked" chain: cloudy cells become NULL so the
            # structural-grouping window statistics skip them (parity with
            # the legacy chain's valid-mask handling).
            from repro.core.thresholds import CLOUD_T108_MAX

            self.db.execute(
                "UPDATE geo_T039 SET v = NULL "
                f"WHERE geo_T108[x][y] < {CLOUD_T108_MAX}"
            )
            self.db.execute(
                f"UPDATE geo_T108 SET v = NULL WHERE v < {CLOUD_T108_MAX}"
            )
        self._load_thresholds(run.timestamp)

    def _load_thresholds(self, timestamp) -> None:
        target = self.georeference.target
        lon, lat = target.mesh()
        zenith = solar_zenith_deg(timestamp, lon, lat)
        grids = threshold_grids(zenith)
        thresholds = self.db.get_array("thresholds")
        for attr, grid in grids.items():
            key = {
                "t039_min": "t039_min",
                "diff_fire": "diff_fire",
                "diff_potential": "diff_potential",
                "std039_fire": "std039_fire",
                "std039_potential": "std039_potential",
                "std108_max": "std108_max",
            }[attr]
            thresholds.set_attribute(key, np.asarray(grid))

    def _classify(self, run) -> None:
        run.result = self.db.execute(_CLASSIFY_SQL)

    def _vectorize(self, run) -> None:
        """§3.1.4: select fire pixels and emit WKT polygon hotspots."""
        target = self.georeference.target
        confidence = np.zeros((target.nx, target.ny), dtype=np.int64)
        result = run.result
        xs = result.column("x").values
        ys = result.column("y").values
        cs = result.column("confidence").values
        keep = ~result.column("confidence").is_null()
        confidence[xs[keep], ys[keep]] = cs[keep]
        run.hotspots = vectorize_confidence(
            confidence, target, run.timestamp, run.sensor, self.name
        )
