package glyph

import "image"

// Render rasterizes s into a grayscale image of height CellHeight and width
// len([]rune(s)) * CellWidth. Ink is black (0), background white (255).
func (re *Renderer) Render(s string) *image.Gray {
	runes := []rune(s)
	return re.RenderWidth(s, len(runes)*CellWidth)
}
