program fuzz
  input integer :: n = 6
  integer :: i0, i1, i2, i3, i4, i5, i6, i7, i8, i9, i10, i11, i12, i13, i14, i15, i16, i17, i18
  integer :: a0(-1:8, -1:8, -1:3)
  integer :: a1(0:4, 0:n)
  integer :: a2(8, -2:8, n)
  integer :: c0(n)
  if (n >= 4) then
    a2(5, 6, 2) = 18
    do i0 = 1, n
      do i1 = 1, i0, 2
        call sub0(n, i1, c0)
        print i1
        print i0
        a2(6, 2*i0-4, i0) = c0(3) + 1
        call sub0(n, i1, c0)
      end do
      if (i0 >= 4) then
        call sub0(n, i0, c0)
        a2(i0, 6, i0) = 0
        call sub0(n, i0, c0)
        a2(i0, 2*i0-4, i0) = i0 + 0
        a1(2, -1*i0+7) = i0 + 2
        a1(1, 0) = 1
      else
        c0(-1*i0+7) = max(i0, 3)
        a2(i0+1, i0-2, -1*i0+7) = a2(i0+2, i0-10, 6) + 2
      end if
      do i2 = 3, 10
        a0(i0-2, -1*i2+11, 3) = c0(1) + 0
        a2(i2-2, 5, 6) = a2(7, i2-5, -1*i0+7) + 2
        a2(6, i2-3, 4) = a0(-1*i0+5, i0-9, 2) + 3
        c0(i0) = a0(i2-2, 3, 2*i0+2) + 0
        if (i2 == 5) then
          exit
        end if
      end do
    end do
    i3 = 2
    while (i3 < 8) do
      i4 = 3
      while (i4 < 3) do
        a1(0, -1*i3+8) = a1(i4-1, i4-1) + 0
        a2(1, i4+1, i4) = a0(-2, i4-3, 4) + 1
        c0(i4+1) = a1(4, -1*i4+4) + 3
        c0(5) = max(i3, 3)
        a0(i3-3, -1, i4) = 8
        i4 = i4 + 1
      end while
      c0(6) = 1
      do i5 = 4, 2, -2
        a1(3, 9) = c0(i3-1) + 3
        call sub0(n, 1, c0)
        call sub0(n, 1, c0)
        call sub0(n, i5, c0)
        call sub0(n, i5, c0)
        call sub0(n, i5, c0)
      end do
      if (i3 /= -1) then
        c0(2) = 19
        call sub0(n, 6, c0)
        call sub0(n, 2, c0)
        call sub0(n, 2, c0)
        a0(1, i3, -1) = a2(i3, i3-4, -1*i3+8) + 0
      end if
      do i6 = 0, 7
        a0(-1*i3+7, i3, 2) = c0(6) + 1
        call sub0(n, 1, c0)
        call sub0(n, 1, c0)
        print i3
        call sub0(n, 1, c0)
        c0(5) = a2(-1*i3+9, i6-10, 2) + 3
      end do
      i3 = i3 + 1
    end while
    do i7 = 1, n
      a2(i7, i7+1, 2) = c0(i7) + 3
      do i8 = 1, i7
        a2(-1*i8+7, -1, 5) = a2(i8, 5, i7) + 0
        c0(1) = c0(i7) + 1
        if (i8 == 3) then
          cycle
        end if
      end do
      a0(i7, 4, 1) = c0(4) + 0
    end do
  end if
  a2(6, 11, 4) = 8
  do i9 = -1, -1
    do i10 = 0, 5
      if (i10 == 0) then
        c0(i10+1) = 10
      end if
      if (i9 == 5) then
        cycle
      end if
    end do
  end do
  do i11 = 5, 11
    do i12 = 0, n
      if (i12 == 3) then
        c0(4) = 13
        print 21
        a1(3, i11-5) = a2(i11-4, -1*i11+12, i11+2) + 2
      end if
    end do
    if (i11 <= 0) then
      a1(2, 2*i11-2) = a0(11, i11-4, 0) + 0
    end if
    print i11
    do i13 = 1, i11
      do i14 = 1, 3, -1
        print 9
        a0(4, 2*i14+1, i14-2) = i14 * 3
      end do
      do i15 = 1, 3
        a1(i15-1, 2*i15-2) = c0(4) + 3
      end do
    end do
    do i16 = 2, -3, -1
      do i17 = 1, i11
        call sub0(n, 5, c0)
        call sub0(n, 5, c0)
        call sub0(n, 3, c0)
        a0(6, 11, -1) = i17 * 1
        a2(4, -1*i11+11, 5) = max(i17, 3)
        call sub0(n, 5, c0)
        a1(i16+8, i11-5) = c0(i16+4) + 1
      end do
      do i18 = 4, 7
        call sub0(n, 6, c0)
        call sub0(n, 6, c0)
        print i18
        a0(0, -1*i16+4, 1) = a0(i11-3, 7, 1) + 0
        a1(2, 0) = a2(i18-1, -1*i16+1, 5) + 3
        a2(i18-1, i16+3, -1*i16-4) = i16 + 2
      end do
      c0(6) = a0(i16+4, -1*i16+2, -1*i16-6) + 1
      if (i11 <= 3) then
        a1(3, -1*i16+3) = a0(i16+6, 3, 2) + 3
        a0(8, -1*i11+10, 0) = -3
        call sub0(n, 3, c0)
        call sub0(n, 3, c0)
      end if
      print i11
      a2(i11-4, -1*i11+12, i16+4) = a2(i11-3, -1*i16+4, i16+4) + 2
    end do
    call sub0(n, 5, c0)
    if (i11 == 4) then
      cycle
    end if
  end do
  a0(-3, 0, 1) = 11
  print 99
end program
subroutine sub0(m, j, x)
  integer :: m, j, k
  integer :: x(m)
  do k = 1, m
    x(k) = k + j
    x(k) = x(k) + m
  end do
  x(j) = x(j) + 1
end subroutine
