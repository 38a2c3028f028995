"""``CrossModalIndex._filtered`` as
``src/repro/discovery/crossmodal.py`` held it before 05c2230: for
``k <= 0`` the fetch depth stays 0 or grows more negative, and the
loop never ends.  No rule fires."""


class CrossModalIndex:
    def __init__(self, index, modality_of_id) -> None:
        self._index = index
        self._modality_of_id = modality_of_id

    def _filtered(self, raw_search, k: int, wanted):
        """Post-filter hits by modality, escalating the fetch depth
        when the wanted modality is rare in the neighbourhood."""
        depth = k if wanted is None else k * 6
        while True:
            out = []
            for hit in raw_search(depth):
                modality = self._modality_of_id[hit.instance_id]
                if wanted is not None and modality not in wanted:
                    continue
                out.append(hit)
                if len(out) >= k:
                    return out
            if depth >= len(self._index):
                return out
            depth = min(depth * 8, len(self._index))
