"""Vectorized numpy/pyarrow kernels. Pure functions, no Ray imports.

These replace the DuckDB spatial / h3 extension functions and the
shapely/geopandas calls used by the reference (SURVEY.md §2.8):
  proj    — EPSG:5070 (CONUS Albers) ↔ EPSG:4326, vendored Snyder formulas
  wkb     — WKB polygon/multipolygon codec over ragged numpy arrays
  geom    — area / centroid / point-in-polygon / clip / simplify / bbox
  s2      — exact S2 cell ids (quadratic projection + Hilbert curve)
  h3exact — bit-exact Uber H3 cell ids (latlng_to_cell)
  image   — raw/ppm/png/qjpg codecs, resize, embed, PSNR, perceptual hash
  sketch  — mergeable HyperLogLog distinct-count
(text-analysis kernels live with their pipelines in pipelines/text.py)
"""
