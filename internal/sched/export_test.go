package sched

// RenderKeyPart returns the bytes KeyOf hashes for one part (without the
// NUL separator), so the external tests can compare them with fmt's %#v.
func RenderKeyPart(v any) (string, error) {
	var w keyWriter
	err := w.part(v)
	return string(w.b), err
}
