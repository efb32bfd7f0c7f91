"""Survey-free Wi-Fi indoor localization from ordered AP-sequence signatures.

Fingerprint maps are computed from AP coordinates alone: each grid cell is
labeled by the order of its distances to a chosen AP subset, and cells
sharing a label form a region.  Online, the measured RSS ordering of a
selected AP subset is matched against those labels — no site survey.
"""
