package runtime

import (
	"strings"
	"testing"

	"extractocol/internal/httpsim"
	"extractocol/internal/ir"
)

const (
	sbInit   = "java.lang.StringBuilder.<init>"
	sbApp    = "java.lang.StringBuilder.append"
	sbStr    = "java.lang.StringBuilder.toString"
	getInit  = "org.apache.http.client.methods.HttpGet.<init>"
	postInit = "org.apache.http.client.methods.HttpPost.<init>"
	clInit   = "org.apache.http.impl.client.DefaultHttpClient.<init>"
	execRef  = "org.apache.http.client.HttpClient.execute"
	jParse   = "org.json.JSONObject.parse"
	jGetStr  = "org.json.JSONObject.getString"
	entCont  = "org.apache.http.util.EntityUtils.toString"
	getEnt   = "org.apache.http.HttpResponse.getEntity"
	seInit   = "org.apache.http.entity.StringEntity.<init>"
	setEnt   = "org.apache.http.client.methods.HttpPost.setEntity"
)

func testNet() *httpsim.Network {
	n := httpsim.NewNetwork()
	s := httpsim.NewServer("api.test.com")
	s.Handle("GET", "/items", func(r *httpsim.Request) *httpsim.Response {
		return httpsim.JSON(`{"token":"TOK-` + r.Query().Get("id") + `"}`)
	})
	s.Handle("POST", "/login", func(r *httpsim.Request) *httpsim.Response {
		if !strings.Contains(r.Body, "user=") {
			return httpsim.Error(400, "bad login")
		}
		return httpsim.JSON(`{"session":"S1"}`)
	})
	s.HandlePrefix("GET", "/media/", func(r *httpsim.Request) *httpsim.Response {
		return httpsim.Binary("MEDIA")
	})
	n.Register(s)
	return n
}

func fireApp(t *testing.T, p *ir.Program, entry string) *VM {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatalf("invalid program: %v", err)
	}
	net := testNet()
	vm := New(p, net)
	if err := vm.Fire(ir.EntryPoint{Method: entry, Kind: ir.EventClick}); err != nil {
		t.Fatalf("Fire: %v", err)
	}
	return vm
}

func TestExecuteGETAndParseJSON(t *testing.T) {
	p := ir.NewProgram("t.rt")
	c := p.AddClass(&ir.Class{Name: "t.rt.A", Fields: []*ir.Field{
		{Name: "token", Type: "java.lang.String"},
	}})
	b := ir.NewMethod(c, "go", false, nil, "void")
	sb := b.New("java.lang.StringBuilder")
	b.InvokeSpecial(sbInit, sb)
	s1 := b.ConstStr("https://api.test.com/items?id=")
	b.InvokeVoid(sbApp, sb, s1)
	n := b.ConstInt(7)
	b.InvokeVoid(sbApp, sb, n)
	uri := b.Invoke(sbStr, sb)
	req := b.New("org.apache.http.client.methods.HttpGet")
	b.InvokeSpecial(getInit, req, uri)
	cl := b.New("org.apache.http.impl.client.DefaultHttpClient")
	b.InvokeSpecial(clInit, cl)
	resp := b.Invoke(execRef, cl, req)
	ent := b.Invoke(getEnt, resp)
	raw := b.InvokeStatic(entCont, ent)
	js := b.InvokeStatic(jParse, raw)
	k := b.ConstStr("token")
	tok := b.Invoke(jGetStr, js, k)
	b.FieldPut(b.This(), "token", tok)
	b.StaticPut("t.rt.A.lastToken", tok)
	b.ReturnVoid()
	b.Done()
	p.Manifest.EntryPoints = []ir.EntryPoint{{Method: "t.rt.A.go", Kind: ir.EventClick}}

	vm := fireApp(t, p, "t.rt.A.go")
	tr := vm.Net.Trace()
	if len(tr) != 1 {
		t.Fatalf("trace = %d", len(tr))
	}
	if tr[0].Request.URL != "https://api.test.com/items?id=7" {
		t.Fatalf("URL = %q", tr[0].Request.URL)
	}
	if got := vm.Statics["t.rt.A.lastToken"]; got != "TOK-7" {
		t.Fatalf("token = %v", got)
	}
}

func TestBranchTakenByInput(t *testing.T) {
	p := ir.NewProgram("t.br")
	c := p.AddClass(&ir.Class{Name: "t.br.B"})
	b := ir.NewMethod(c, "go", false, []string{"int"}, "void")
	mode := b.Param(0)
	u := b.Reg()
	zero := b.ConstInt(0)
	b.IfEq(mode, zero, "alt")
	u1 := b.ConstStr("https://api.test.com/items?id=1")
	b.MoveTo(u, u1)
	b.Goto("send")
	b.Label("alt")
	u2 := b.ConstStr("https://api.test.com/items?id=2")
	b.MoveTo(u, u2)
	b.Label("send")
	req := b.New("org.apache.http.client.methods.HttpGet")
	b.InvokeSpecial(getInit, req, u)
	cl := b.New("org.apache.http.impl.client.DefaultHttpClient")
	b.InvokeSpecial(clInit, cl)
	b.Invoke(execRef, cl, req)
	b.ReturnVoid()
	b.Done()
	p.Manifest.EntryPoints = []ir.EntryPoint{{Method: "t.br.B.go", Kind: ir.EventClick}}

	net := testNet()
	vm := New(p, net)
	vm.Input = func(m string, i int, typ string) value { return int64(0) }
	if err := vm.Fire(ir.EntryPoint{Method: "t.br.B.go"}); err != nil {
		t.Fatal(err)
	}
	tr := net.Trace()
	if len(tr) != 1 || !strings.HasSuffix(tr[0].Request.URL, "id=2") {
		t.Fatalf("trace = %+v", tr[0].Request)
	}
}

func TestFormEntityPost(t *testing.T) {
	p := ir.NewProgram("t.fe")
	c := p.AddClass(&ir.Class{Name: "t.fe.F"})
	b := ir.NewMethod(c, "login", false, nil, "void")
	list := b.New("java.util.ArrayList")
	b.InvokeSpecial("java.util.ArrayList.<init>", list)
	k := b.ConstStr("user")
	v := b.ConstStr("alice")
	pair := b.New("org.apache.http.message.BasicNameValuePair")
	b.InvokeSpecial("org.apache.http.message.BasicNameValuePair.<init>", pair, k, v)
	b.InvokeVoid("java.util.ArrayList.add", list, pair)
	ent := b.New("org.apache.http.client.entity.UrlEncodedFormEntity")
	b.InvokeSpecial("org.apache.http.client.entity.UrlEncodedFormEntity.<init>", ent, list)
	u := b.ConstStr("https://api.test.com/login")
	req := b.New("org.apache.http.client.methods.HttpPost")
	b.InvokeSpecial(postInit, req, u)
	b.InvokeVoid(setEnt, req, ent)
	cl := b.New("org.apache.http.impl.client.DefaultHttpClient")
	b.InvokeSpecial(clInit, cl)
	b.Invoke(execRef, cl, req)
	b.ReturnVoid()
	b.Done()
	p.Manifest.EntryPoints = []ir.EntryPoint{{Method: "t.fe.F.login", Kind: ir.EventLogin}}

	vm := fireApp(t, p, "t.fe.F.login")
	tr := vm.Net.Trace()
	if len(tr) != 1 || tr[0].Request.Method != "POST" {
		t.Fatalf("trace = %+v", tr)
	}
	if tr[0].Request.Body != "user=alice" {
		t.Fatalf("body = %q", tr[0].Request.Body)
	}
	if tr[0].Response.Status != 200 {
		t.Fatalf("status = %d", tr[0].Response.Status)
	}
}

func TestAsyncTaskChain(t *testing.T) {
	p := ir.NewProgram("t.at")
	task := p.AddClass(&ir.Class{Name: "t.at.Task", Super: "android.os.AsyncTask"})
	dib := ir.NewMethod(task, "doInBackground", false, nil, "java.lang.String")
	u := dib.ConstStr("https://api.test.com/items?id=9")
	req := dib.New("org.apache.http.client.methods.HttpGet")
	dib.InvokeSpecial(getInit, req, u)
	cl := dib.New("org.apache.http.impl.client.DefaultHttpClient")
	dib.InvokeSpecial(clInit, cl)
	resp := dib.Invoke(execRef, cl, req)
	ent := dib.Invoke(getEnt, resp)
	raw := dib.InvokeStatic(entCont, ent)
	dib.Return(raw)
	dib.Done()
	post := ir.NewMethod(task, "onPostExecute", false, []string{"java.lang.String"}, "void")
	body := post.Param(0)
	post.StaticPut("t.at.Task.result", body)
	post.ReturnVoid()
	post.Done()

	main := p.AddClass(&ir.Class{Name: "t.at.Main"})
	b := ir.NewMethod(main, "onCreate", false, nil, "void")
	tk := b.New("t.at.Task")
	b.InvokeSpecial("t.at.Task.<init>", tk)
	b.InvokeVoid("android.os.AsyncTask.execute", tk)
	b.ReturnVoid()
	b.Done()
	p.Manifest.EntryPoints = []ir.EntryPoint{{Method: "t.at.Main.onCreate", Kind: ir.EventCreate}}

	vm := fireApp(t, p, "t.at.Main.onCreate")
	if got := vm.Statics["t.at.Task.result"]; got != `{"token":"TOK-9"}` {
		t.Fatalf("result = %v", got)
	}
}

func TestVolleyEnqueueDeliversJSONCallback(t *testing.T) {
	p := ir.NewProgram("t.vl")
	reqCls := p.AddClass(&ir.Class{Name: "t.vl.Req", Super: "com.android.volley.toolbox.JsonObjectRequest"})
	onr := ir.NewMethod(reqCls, "onResponse", false, []string{"org.json.JSONObject"}, "void")
	js := onr.Param(0)
	k := onr.ConstStr("token")
	v := onr.Invoke(jGetStr, js, k)
	onr.StaticPut("t.vl.Req.got", v)
	onr.ReturnVoid()
	onr.Done()

	main := p.AddClass(&ir.Class{Name: "t.vl.Main"})
	b := ir.NewMethod(main, "onCreate", false, nil, "void")
	u := b.ConstStr("https://api.test.com/items?id=3")
	r := b.New("t.vl.Req")
	b.InvokeSpecial("com.android.volley.toolbox.JsonObjectRequest.<init>", r, u)
	q := b.New("com.android.volley.RequestQueue")
	b.InvokeVoid("com.android.volley.RequestQueue.add", q, r)
	b.ReturnVoid()
	b.Done()
	p.Manifest.EntryPoints = []ir.EntryPoint{{Method: "t.vl.Main.onCreate", Kind: ir.EventCreate}}

	vm := fireApp(t, p, "t.vl.Main.onCreate")
	if got := vm.Statics["t.vl.Req.got"]; got != "TOK-3" {
		t.Fatalf("got = %v", got)
	}
}

func TestMediaSinkFetchesAndCounts(t *testing.T) {
	p := ir.NewProgram("t.ms")
	c := p.AddClass(&ir.Class{Name: "t.ms.M"})
	b := ir.NewMethod(c, "play", false, nil, "void")
	u := b.ConstStr("https://api.test.com/media/song.mp3")
	mp := b.New("android.media.MediaPlayer")
	b.InvokeVoid("android.media.MediaPlayer.setDataSource", mp, u)
	b.ReturnVoid()
	b.Done()
	p.Manifest.EntryPoints = []ir.EntryPoint{{Method: "t.ms.M.play", Kind: ir.EventClick}}

	vm := fireApp(t, p, "t.ms.M.play")
	if vm.Consumed["media"] != 1 {
		t.Fatalf("consumed = %v", vm.Consumed)
	}
	tr := vm.Net.Trace()
	if len(tr) != 1 || tr[0].Response.Type != "binary" {
		t.Fatalf("trace = %+v", tr)
	}
}

func TestDBAndResources(t *testing.T) {
	p := ir.NewProgram("t.db")
	p.Resources["greeting"] = "hello"
	c := p.AddClass(&ir.Class{Name: "t.db.D"})
	b := ir.NewMethod(c, "go", false, nil, "void")
	res := b.New("android.content.res.Resources")
	kn := b.ConstStr("greeting")
	g := b.Invoke("android.content.res.Resources.getString", res, kn)
	cv := b.New("android.content.ContentValues")
	b.InvokeSpecial("android.content.ContentValues.<init>", cv)
	col := b.ConstStr("msg")
	b.InvokeVoid("android.content.ContentValues.put", cv, col, g)
	db := b.New("android.database.sqlite.SQLiteDatabase")
	tbl := b.ConstStr("notes")
	b.InvokeVoid("android.database.sqlite.SQLiteDatabase.insert", db, tbl, cv)
	tbl2 := b.ConstStr("notes")
	col2 := b.ConstStr("msg")
	back := b.Invoke("android.database.sqlite.SQLiteDatabase.query", db, tbl2, col2)
	b.StaticPut("t.db.D.out", back)
	b.ReturnVoid()
	b.Done()
	p.Manifest.EntryPoints = []ir.EntryPoint{{Method: "t.db.D.go", Kind: ir.EventCreate}}

	vm := fireApp(t, p, "t.db.D.go")
	if got := vm.Statics["t.db.D.out"]; got != "hello" {
		t.Fatalf("round trip = %v", got)
	}
}

func TestURLConnectionPost(t *testing.T) {
	p := ir.NewProgram("t.uc")
	c := p.AddClass(&ir.Class{Name: "t.uc.U"})
	b := ir.NewMethod(c, "send", false, nil, "void")
	us := b.ConstStr("https://api.test.com/login")
	u := b.New("java.net.URL")
	b.InvokeSpecial("java.net.URL.<init>", u, us)
	conn := b.Invoke("java.net.URL.openConnection", u)
	meth := b.ConstStr("POST")
	b.InvokeVoid("java.net.HttpURLConnection.setRequestMethod", conn, meth)
	out := b.Invoke("java.net.HttpURLConnection.getOutputStream", conn)
	body := b.ConstStr("user=bob&passwd=pw")
	b.InvokeVoid("java.io.OutputStream.write", out, body)
	in := b.Invoke("java.net.HttpURLConnection.getInputStream", conn)
	resp := b.Invoke("java.io.InputStream.readAll", in)
	b.StaticPut("t.uc.U.resp", resp)
	b.ReturnVoid()
	b.Done()
	p.Manifest.EntryPoints = []ir.EntryPoint{{Method: "t.uc.U.send", Kind: ir.EventClick}}

	vm := fireApp(t, p, "t.uc.U.send")
	tr := vm.Net.Trace()
	if len(tr) != 1 || tr[0].Request.Method != "POST" || tr[0].Request.Body != "user=bob&passwd=pw" {
		t.Fatalf("trace = %+v", tr[0].Request)
	}
	if got := vm.Statics["t.uc.U.resp"]; got != `{"session":"S1"}` {
		t.Fatalf("resp = %v", got)
	}
}

func TestGsonRoundTrip(t *testing.T) {
	p := ir.NewProgram("t.gs")
	p.AddClass(&ir.Class{Name: "t.gs.Item", Fields: []*ir.Field{
		{Name: "token", Type: "java.lang.String"},
	}})
	c := p.AddClass(&ir.Class{Name: "t.gs.G"})
	b := ir.NewMethod(c, "go", false, nil, "void")
	u := b.ConstStr("https://api.test.com/items?id=5")
	req := b.New("org.apache.http.client.methods.HttpGet")
	b.InvokeSpecial(getInit, req, u)
	cl := b.New("org.apache.http.impl.client.DefaultHttpClient")
	b.InvokeSpecial(clInit, cl)
	resp := b.Invoke(execRef, cl, req)
	ent := b.Invoke(getEnt, resp)
	raw := b.InvokeStatic(entCont, ent)
	gson := b.New("com.google.gson.Gson")
	cls := b.ConstStr("t.gs.Item")
	item := b.Invoke("com.google.gson.Gson.fromJson", gson, raw, cls)
	tok := b.FieldGet(item, "token")
	b.StaticPut("t.gs.G.tok", tok)
	back := b.Invoke("com.google.gson.Gson.toJson", gson, item)
	b.StaticPut("t.gs.G.json", back)
	b.ReturnVoid()
	b.Done()
	p.Manifest.EntryPoints = []ir.EntryPoint{{Method: "t.gs.G.go", Kind: ir.EventCreate}}

	vm := fireApp(t, p, "t.gs.G.go")
	if got := vm.Statics["t.gs.G.tok"]; got != "TOK-5" {
		t.Fatalf("tok = %v", got)
	}
	if got := vm.Statics["t.gs.G.json"]; got != `{"token":"TOK-5"}` {
		t.Fatalf("json = %v", got)
	}
}

func TestLoopBudgetGuard(t *testing.T) {
	p := ir.NewProgram("t.inf")
	c := p.AddClass(&ir.Class{Name: "t.inf.I"})
	b := ir.NewMethod(c, "spin", false, nil, "void")
	b.Label("again")
	b.ConstInt(1)
	b.Goto("again")
	b.Done()
	p.Manifest.EntryPoints = []ir.EntryPoint{{Method: "t.inf.I.spin", Kind: ir.EventCreate}}

	net := testNet()
	vm := New(p, net)
	vm.maxSteps = 10_000
	if err := vm.Fire(ir.EntryPoint{Method: "t.inf.I.spin"}); err == nil {
		t.Fatal("expected step-budget error")
	}
}

// TestRecursionDepthGuard pins the call-depth bound: a handler that sends
// one request and then re-invokes itself unconditionally must fail its
// entry point with an error, long before the step budget, and record one
// exchange per frame up to the bound.
func TestRecursionDepthGuard(t *testing.T) {
	p := ir.NewProgram("t.poll")
	c := p.AddClass(&ir.Class{Name: "t.poll.P"})
	b := ir.NewMethod(c, "poll", false, nil, "void")
	uri := b.ConstStr("https://api.test.com/items?id=1")
	req := b.New("org.apache.http.client.methods.HttpGet")
	b.InvokeSpecial(getInit, req, uri)
	cl := b.New("org.apache.http.impl.client.DefaultHttpClient")
	b.InvokeSpecial(clInit, cl)
	b.Invoke(execRef, cl, req)
	b.InvokeVoid("t.poll.P.poll", b.This())
	b.ReturnVoid()
	b.Done()
	if err := p.Validate(); err != nil {
		t.Fatalf("invalid program: %v", err)
	}

	net := testNet()
	vm := New(p, net)
	err := vm.Fire(ir.EntryPoint{Method: "t.poll.P.poll", Kind: ir.EventClick})
	if err == nil || !strings.Contains(err.Error(), "call depth") {
		t.Fatalf("Fire = %v, want a call-depth error", err)
	}
	if got := len(net.Trace()); got != maxCallDepth {
		t.Fatalf("recorded %d exchanges, want one per frame up to %d", got, maxCallDepth)
	}
	if vm.depth != 0 {
		t.Fatalf("depth %d after the entry point unwound", vm.depth)
	}
}
